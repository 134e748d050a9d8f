"""Exact-arithmetic toolkit for dividing formulas n | Q(n).

Four layers: prime-factorization inclusion-exclusion operators (arith),
memoized recurrence families and divisibility-preserving combinators
(sequences), an exact piecewise-linear oracle that recounts everything by
enumeration (interval_map), and an edge-count engine giving a third,
independent computation path (symbolic). The `divseq` command wires them
together.

The package's names are those of the four layers' __all__ joined, and each
layer loads when one of its names is first used: `import divseq` imports
none of them, and `divseq.NAME` imports the layers in the order above until
one exports NAME, then binds NAME here, so that a later `divseq.NAME` is a
plain attribute read. So `verify` and `conjecture`, which read only arith
and sequences, never load interval_map or symbolic.
"""

from importlib import import_module

__version__ = "0.1.0"

# in the order their names appear in __all__
_LAYERS = ("arith", "sequences", "interval_map", "symbolic")


def _layer(name: str):
    return import_module(f"{__name__}.{name}")


def __getattr__(name: str):
    if name == "__all__":
        value = ["__version__"]
        for layer in _LAYERS:
            value += _layer(layer).__all__
    elif name in _LAYERS:
        return _layer(name)  # the import binds it here
    elif name.startswith("__"):
        # introspection (__path__ is set, __wrapped__ and the like are not)
        # loads no layer
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    else:
        for layer in map(_layer, _LAYERS):
            if name in layer.__all__:
                value = getattr(layer, name)
                break
        else:
            raise AttributeError(
                f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__getattr__("__all__")})
