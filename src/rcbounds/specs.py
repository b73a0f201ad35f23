"""One reader and one writer for the JSON spec of every config type.

The keys of a spec are the fields of its type, or the key a field names in
field(metadata={"key": ...}).  _from_spec reads one: a field without a
default is required, a null leaves a field that defaults to None unset,
and a value its field's annotated type cannot take is a ConfigError; the
type states the ranges of its fields.  to_spec writes one back.  A type
spelled by one of its fields alone (an activation by its kind) names that
field in its class attribute spec_field; a block whose kind or family
picks its type is read by _pick.
"""

import dataclasses

from .dependence import Moment

__all__ = ["ConfigError", "to_spec"]


class ConfigError(ValueError):
    """Invalid or incomplete experiment configuration."""


def _cfg(build, *args, **kwargs):
    """Run a constructor on config data; its ValueErrors are config errors."""
    try:
        return build(*args, **kwargs)
    except ConfigError:
        raise
    except (ValueError, TypeError) as exc:
        raise ConfigError(str(exc)) from exc


def _pos_int(value, where, minimum=1):
    """An integer >= minimum (None: any); true, false and 512.9 are none."""
    try:
        if value is True or value is False:
            raise ValueError
        n = int(value)
        if value != n and float(value) != n:  # 2.7 would truncate to 2
            raise ValueError
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{where} must be an integer") from None
    if minimum is not None and n < minimum:
        raise ConfigError(f"{where} must be >= {minimum}")
    return n


def _read(typ, value, where):
    """One config value read as the annotated type of its field."""
    if typ is int:
        return _pos_int(value, where, minimum=None)  # the type states its range
    if typ is str and not isinstance(value, str):  # str(7) is "7"
        raise ConfigError(f"{where} must be a string")
    if typ is Moment and not isinstance(value, dict):
        value = {"value": value}  # a bare number is the moment's value
    if typ is bool:  # bool("False") is True
        if value is not True and value is not False:
            raise ConfigError(f"{where} must be true or false")
        return value
    spelled_by = getattr(typ, "spec_field", None)
    if dataclasses.is_dataclass(typ) and spelled_by is None:
        return _from_spec(typ, value, f"{where} spec")
    try:
        if spelled_by is not None:
            return typ(**{spelled_by: value})
        return typ(value)  # float, str, tuple
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{where}: {exc}") from None


def _pick(spec, key, types, where):
    """A block's family or kind (spec[key]), and its other keys read as the
    type that name picks among types."""
    if not isinstance(spec, dict) or key not in spec:
        raise ConfigError(f"{where} must be a JSON object with a {key!r}")
    name = str(spec[key])
    if name not in types:
        raise ConfigError(f"{where} {key} must be one of {list(types)}")
    rest = {k: v for k, v in spec.items() if k != key}
    return name, _from_spec(types[name], rest, f"{name} {where}")


def _key(f):
    return f.metadata.get("key", f.name)


def _from_spec(cls, spec, where):
    fields = dataclasses.fields(cls)
    if not isinstance(spec, dict):
        raise ConfigError(f"{where} must be a JSON object")
    unknown = sorted(set(spec) - {_key(f) for f in fields})
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {unknown}")
    kwargs = {}
    for f in fields:
        key = _key(f)
        if key in spec and not (spec[key] is None and f.default is None):
            kwargs[f.name] = _read(f.type, spec[key], key)
        elif f.default is dataclasses.MISSING:
            raise ConfigError(f"missing key {key!r} in {where}")
    return _cfg(cls, **kwargs)


def to_spec(value):
    """The spec of a config value, the inverse of _read: a dataclass as its
    set fields under their keys (or as its spec_field), numpy arrays and
    scalars as what their tolist gives, tuples as lists."""
    if (spelled_by := getattr(value, "spec_field", None)) is not None:
        return getattr(value, spelled_by)
    if dataclasses.is_dataclass(value):
        return {_key(f): to_spec(v) for f in dataclasses.fields(value)
                if (v := getattr(value, f.name)) is not None}
    if hasattr(value, "tolist"):
        return value.tolist()
    if isinstance(value, tuple):
        return [to_spec(v) for v in value]
    return value
