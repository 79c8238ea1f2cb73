"""A sound structural key for memoizing verdicts about a protocol.

:func:`structural_key` digests everything a verdict can depend on — AST
dataclasses, plans, step-table rows, budgets — into 16 bytes.  A key
that stands for a *verdict* has to see through the user callables the
AST carries (guard conditions, updates, payloads): a function
contributes its code object, its defaults, the values of its closure
cells and the module globals its code names, recursively.  Whatever the
walk cannot see through — a builtin, a ``functools.partial``, a bound
method or callable object, a list or set in a closure cell, a module or
class global — makes the whole subject *unkeyable* (``None``): the caller
then simply does the work, every time.

Equal keys therefore mean equal structure and equal callable behaviour;
unequal keys mean nothing (two separately written but identical lambdas
key equally, one function object used twice keys differently from two
equal ones — a spurious miss, never a wrong hit).
"""

from __future__ import annotations

import types
from dataclasses import fields, is_dataclass
from hashlib import blake2b
from typing import Any, Optional

from ..csp.env import Env

__all__ = ["structural_key"]


class _Unkeyable(Exception):
    """Some part of the subject cannot be seen through."""


def structural_key(*parts: Any) -> Optional[bytes]:
    """A 16-byte digest of ``parts``, or ``None`` if any is unkeyable."""
    try:
        shape = _shape(parts, {})
    except _Unkeyable:
        return None
    return blake2b(repr(shape).encode(), digest_size=16).digest()


def _shape(obj: Any, seen: dict[int, int]) -> Any:
    """``obj`` as nested tuples of primitives whose ``repr`` is injective.

    Every compound is tagged, so no user value can pose as another kind.
    ``seen`` numbers the functions met so far: a second meeting (shared
    helper, recursion through a cell or a global) is a back-reference.
    """
    if obj is None or type(obj) in (bool, int, float, str, bytes):
        return obj
    if type(obj) is tuple:
        return ("tuple", *(_shape(x, seen) for x in obj))
    if type(obj) is frozenset:
        return ("frozenset", *sorted(repr(_shape(x, seen)) for x in obj))
    if type(obj) is dict:
        return ("dict", *((_shape(k, seen), _shape(v, seen))
                          for k, v in obj.items()))
    if type(obj) is Env:
        return ("env", _shape(obj.canonical_key(), seen))
    if is_dataclass(obj) and not isinstance(obj, type):
        # the fields ``==`` reads: a declared memo is not structure
        cls = type(obj)
        return ("data", cls.__module__, cls.__qualname__,
                *(_shape(getattr(obj, f.name), seen) for f in fields(obj)
                  if f.compare))
    if type(obj) is types.FunctionType:
        return _function_shape(obj, seen)
    if type(obj) is types.CodeType:
        return ("code", obj.co_code,
                getattr(obj, "co_exceptiontable", b""), obj.co_names,
                obj.co_varnames, obj.co_freevars, obj.co_cellvars,
                obj.co_argcount, obj.co_posonlyargcount,
                obj.co_kwonlyargcount, obj.co_flags,
                *(_shape(c, seen) for c in obj.co_consts))
    raise _Unkeyable(type(obj).__name__)


def _function_shape(fn: types.FunctionType, seen: dict[int, int]) -> Any:
    number = seen.get(id(fn))
    if number is not None:
        return ("ref", number)
    seen[id(fn)] = len(seen)
    if fn.__dict__:  # attributes the code may read back off the function
        raise _Unkeyable("function attributes")
    try:
        cells = tuple(cell.cell_contents for cell in fn.__closure__ or ())
    except ValueError:  # an empty cell: the closure is not finished
        raise _Unkeyable("empty closure cell") from None
    names = sorted(_global_names(fn.__code__) & fn.__globals__.keys())
    return ("function", _shape(fn.__code__, seen),
            _shape(fn.__defaults__, seen), _shape(fn.__kwdefaults__, seen),
            _shape(cells, seen),
            *((name, _shape(fn.__globals__[name], seen)) for name in names))


def _global_names(code: types.CodeType) -> set[str]:
    """Every name ``code`` or a code object nested in it may look up."""
    names = set(code.co_names)
    for const in code.co_consts:
        if type(const) is types.CodeType:
            names |= _global_names(const)
    return names
