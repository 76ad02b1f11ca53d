"""JSON text for ``--format json``: the bytes of
``json.dumps(value, indent=2, sort_keys=True)`` for dicts with str keys,
lists, tuples, str, int, float, bool and None.

With ``indent`` set, ``json.dumps`` runs the pure-Python encoder one value
at a time.  Here a list of strings, which is where the bulk of the output
goes (the decimal coefficients of local factors), is written by one
``str.join`` over the C string encoder, and a dict met again at the same
indent (the two equal sides of a verification row) is written once.
The C string encoder is taken from ``_json`` itself, which is what
``json.encoder`` exports too, so that writing loads no ``json`` package.
"""

try:
    from _json import encode_basestring_ascii as _quote
except ImportError:  # an interpreter without the C accelerator
    from json.encoder import encode_basestring_ascii as _quote

#: The spellings ``json.dumps`` gives the floats that are not numbers.
_FLOAT_NAMES = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def dumps(value) -> str:
    """``json.dumps(value, indent=2, sort_keys=True)``; a value of any other
    type, at any depth, raises ``TypeError``."""
    parts: list = []
    _write(value, "\n", parts, {})
    return "".join(parts)


def _write(value, newline: str, parts: list, written: dict) -> None:
    """Append ``value`` to ``parts`` as it stands after ``newline``, the line
    break and indent of its own line.  ``written`` maps (id, newline) of
    each dict written so far to its span of ``parts``; the caller's value
    holds every such dict, so no id is reused while it is read."""
    if isinstance(value, str):
        parts.append(_quote(value))
    elif isinstance(value, dict):
        if not value:
            parts.append("{}")
            return
        seen = (id(value), newline)
        if seen in written:
            start, end = written[seen]
            parts.extend(parts[start:end])
            return
        start = len(parts)
        inner = newline + "  "
        head = "{" + inner
        for key in sorted(value):
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            parts.append(head + _quote(key) + ": ")
            head = "," + inner
            _write(value[key], inner, parts, written)
        parts.append(newline + "}")
        written[seen] = start, len(parts)
    elif isinstance(value, (list, tuple)):
        if not value:
            parts.append("[]")
            return
        inner = newline + "  "
        separator = "," + inner
        try:
            body = separator.join(map(_quote, value))
        except TypeError:  # not every item is a string
            head = "[" + inner
            for item in value:
                parts.append(head)
                head = separator
                _write(item, inner, parts, written)
        else:
            parts.append("[" + inner)
            parts.append(body)
        parts.append(newline + "]")
    else:
        parts.append(_scalar(value))


def _scalar(value) -> str:
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        text = float.__repr__(value)
        return _FLOAT_NAMES.get(text, text)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
