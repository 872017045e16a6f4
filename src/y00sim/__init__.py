"""y00sim: physical-layer simulator for a keyed M-ary coherent-state
stream cipher, with quantum detection bounds, an IMDD fiber link budget,
and a keyed repetition-code layer."""

__version__ = "0.1.0"
