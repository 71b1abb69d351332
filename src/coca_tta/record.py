"""Typed dict reader and writer for the config dataclasses.

A Record's dataclass fields are its schema. ``to_dict`` writes every field;
``from_dict`` takes keys, required-ness, defaults and value types from the
same declarations and rejects anything else with a ValueError that names the
path of the offending value, e.g. ``<root>.models[0].lr``.
"""

from __future__ import annotations

import dataclasses
import functools
import typing


class Record:
    """Base of the config dataclasses: one schema for reading and writing."""

    # written ahead of the fields, e.g. a schema version; when read, a tag key
    # may be absent, but present it must hold this value
    _tag = {}

    def to_dict(self) -> dict:
        return {**self._tag,
                **{name: _plain(getattr(self, name)) for name in _fields(type(self))}}

    @classmethod
    def from_dict(cls, d: dict):
        return cls._read(d, "<root>")

    @classmethod
    def _read(cls, d, path: str):
        if not isinstance(d, dict):
            raise _wrong(path, "an object", d)
        fields = _fields(cls)
        unknown = d.keys() - fields.keys() - cls._tag.keys()
        if unknown:
            raise ValueError(f"{path}: unknown keys {sorted(unknown, key=str)}")
        for key, want in cls._tag.items():
            if key in d and reader(type(want))(d[key], f"{path}.{key}") != want:
                raise ValueError(f"{path}.{key}: expected {want!r}, got {d[key]!r}")
        kwargs = {}
        for name, (read, required) in fields.items():
            if name in d:
                kwargs[name] = read(d[name], f"{path}.{name}")
            elif required:
                raise ValueError(f"{path}: missing required key {name!r}")
        try:
            return cls(**kwargs)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None


def _plain(value):
    if isinstance(value, Record):
        return value.to_dict()
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    return value


@functools.cache
def _fields(cls: type) -> dict:
    """Each field's reader and whether the field is required (has no default)."""
    hints = typing.get_type_hints(cls)
    return {f.name: (reader(hints[f.name]), f.default is dataclasses.MISSING
                     and f.default_factory is dataclasses.MISSING)
            for f in dataclasses.fields(cls)}


@functools.cache
def reader(tp):
    """The function ``read(value, path)`` that reads a JSON value as type ``tp``."""
    if isinstance(tp, type) and issubclass(tp, Record):
        return tp._read
    if tp in _SCALARS:
        return _SCALARS[tp]
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    inner = [a for a in args if a is not type(None)]
    if origin is typing.Union and len(inner) == 1 < len(args):
        read = reader(inner[0])
        return lambda v, path: None if v is None else read(v, path)
    if origin in (list, tuple):
        fixed = origin is tuple and args[-1] is not Ellipsis
        return _sequence(origin, [reader(a) for a in args[:None if fixed else 1]], fixed)
    raise TypeError(f"no reader for config type {tp!r}")


def _sequence(kind: type, items: list, fixed: bool):
    """Reads a JSON list; ``fixed`` means one reader per position, else one for all."""
    def read(v, path):
        if not isinstance(v, list):
            raise _wrong(path, "a list", v)
        if fixed and len(v) != len(items):
            raise ValueError(f"{path}: expected {len(items)} items, got {len(v)}")
        return kind(items[i if fixed else 0](x, f"{path}[{i}]") for i, x in enumerate(v))
    return read


def _wrong(path: str, expected: str, v) -> ValueError:
    return ValueError(f"{path}: expected {expected}, got {v!r}")


def _read_int(v, path):
    if isinstance(v, float) and v.is_integer():
        return int(v)
    if isinstance(v, int) and not isinstance(v, bool):
        return v
    raise _wrong(path, "an integer", v)


def _read_float(v, path):
    # an int beyond the float range would raise OverflowError in float()
    if isinstance(v, float) or (isinstance(v, int) and not isinstance(v, bool)
                                and abs(v) <= 2 ** 1023):
        return float(v)
    raise _wrong(path, "a number", v)


def _read_bool(v, path):
    if isinstance(v, bool):
        return v
    raise _wrong(path, "true or false", v)


def _read_str(v, path):
    if isinstance(v, str):
        return v
    raise _wrong(path, "a string", v)


_SCALARS = {int: _read_int, float: _read_float, bool: _read_bool, str: _read_str}
