"""The file layer: output places, atomic writes, and the CSV and JSON formats.

Each output goes to a uniquely named temporary file beside its target
and is renamed over it; a failed write leaves the old target and no
temporary file. There are two writers: ``write_text`` for a whole text,
and ``write_lines`` for lines already formatted, each written to that
file as it comes (a reader log is streamed from one line template), so
the whole text is never held. CSV is UTF-8 with LF line endings and a
header row; JSON is indented by two spaces and ends with a newline.
Every reader decodes through ``read_text`` and names ``path:line`` or
``path: field`` in each ``DataError``.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
from contextlib import contextmanager
from typing import Iterable, Sequence

from .errors import DataError


def check_output_dir(path) -> None:
    """Raise ``DataError`` unless the directory that would hold ``path``
    exists and ``path`` is not itself a directory."""
    directory = os.path.dirname(os.fspath(path))
    if directory and not os.path.isdir(directory):
        raise DataError(f"{path}: directory {directory!r} does not exist")
    if os.path.isdir(path):
        raise DataError(f"{path}: is a directory, not a file")


def check_outputs(targets, inputs) -> None:
    """Refuse each target ``(flag or name, path)`` whose path is empty or that
    ``check_output_dir`` refuses, then one that resolves to an input or to an
    earlier target; ``None`` paths are skipped."""
    targets = [(name, path) for name, path in targets if path is not None]
    for name, path in targets:
        if not os.fspath(path):
            raise DataError(f"{name}: an empty path names no file")
        check_output_dir(path)
    owners = {os.path.realpath(path): "an input" for path in inputs if path is not None}
    for name, path in targets:
        real = os.path.realpath(path)
        if owner := owners.get(real):
            raise DataError(f"{path}: {owner} and {name} name the same file"
                            if owner.startswith("-") else f"{path}: {name} names {owner}")
        owners[real] = name


@contextmanager
def _replacing(path):
    """A text file that replaces ``path`` when the block ends (UTF-8,
    line endings as written)."""
    check_output_dir(path)
    # Not tempfile.mkstemp: its 0600 mode would differ from open(path, "w").
    tmp = f"{path}.{os.urandom(6).hex()}.tmp"
    fh = open(tmp, "x", encoding="utf-8", newline="")
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def write_text(path, text: str) -> None:
    """Replace ``path`` with ``text`` (UTF-8, line endings as given)."""
    with _replacing(path) as fh:
        fh.write(text)


def csv_text(header: Sequence[str], rows: Iterable[Sequence]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def write_lines(path, header: Sequence[str], lines: Iterable[str]) -> None:
    """Replace ``path`` with the CSV ``header`` row, then ``lines``, rows
    already formatted as CSV text, each written as it comes."""
    with _replacing(path) as fh:
        fh.write(csv_text(header, ()))
        fh.writelines(lines)


def read_text(path) -> str:
    """The text of a UTF-8 file, with universal newlines; undecodable
    bytes are a ``DataError`` naming the file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise DataError(f"{path}: not UTF-8 text ({exc.reason})") from None


def setting_lines(text: str):
    """``(lineno, line)`` for each line of a settings text that holds more
    than a ``#`` comment, the comment cut and the line stripped. Lines are
    counted at line feeds only (``str.splitlines`` also counts form feeds
    and more), so an error names the line an editor shows."""
    for lineno, raw in enumerate(text.split("\n"), start=1):
        if line := raw.split("#", 1)[0].strip():
            yield lineno, line


def is_utf8_text(value) -> bool:
    """Whether ``value`` is a str that UTF-8 can encode, as every file
    rfad writes must: a lone surrogate, which a JSON escape such as
    ``"\\ud800"`` or an undecodable byte of a command line makes, is not."""
    if not isinstance(value, str):
        return False
    try:
        value.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


def json_text(payload) -> str:
    """``payload`` as JSON text; a NaN or an infinity, which no loader
    reads back, is a ``DataError``."""
    try:
        return json.dumps(payload, indent=2, allow_nan=False) + "\n"
    except ValueError:
        raise DataError("a NaN or an infinity cannot be written as JSON") from None


def write_json(path, payload) -> None:
    try:
        text = json_text(payload)
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from None
    write_text(path, text)


def finite(token: str) -> float:
    """``float(token)``, rejecting NaN and infinities."""
    value = float(token)
    if not math.isfinite(value):
        raise ValueError(f"non-finite number {token}")
    return value


_JSON_KINDS = {dict: "an object", list: "an array", str: "a string", bool: "a boolean",
               int: "a number", float: "a number", type(None): "null"}


def _object(pairs: list) -> dict:
    """A JSON object's ``(key, value)`` pairs as a dict; a key given twice is
    refused, not read as its last value."""
    payload = dict(pairs)
    if len(payload) < len(pairs):
        keys = [key for key, _ in pairs]
        repeated = next(key for i, key in enumerate(keys) if key in keys[:i])
        raise ValueError(f"repeated key {repeated!r}")
    return payload


def read_json(path, kind: str, convert):
    """``convert`` applied to a parsed JSON file that holds ``kind``: to
    each entry of a "... list", an array of objects, else to the one
    object. A parse, shape or conversion failure, or a key repeated in
    an object, becomes a ``DataError`` naming the file, and the entry
    where it is one of a list; a file of another shape names the kind
    expected and what it holds, and an empty list is refused."""
    text = read_text(path)
    try:
        payload = json.loads(text, parse_float=finite, parse_constant=finite,
                             object_pairs_hook=_object)
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}:{exc.lineno}: {exc.msg}") from None
    except ValueError as exc:
        raise DataError(f"{path}: {exc}") from None
    except RecursionError:
        raise DataError(f"{path}: nested too deeply") from None
    many = kind.endswith(" list")
    if not isinstance(payload, list if many else dict):
        raise DataError(f"{path}: expected a {kind} (a JSON {'array' if many else 'object'}), "
                        f"found {_JSON_KINDS[type(payload)]}")
    if not many:
        return _converted(f"{path}: ", convert, payload)
    if not payload:
        raise DataError(f"{path}: the {kind} is empty")
    for index, entry in enumerate(payload):
        if not isinstance(entry, dict):
            raise DataError(f"{path}: entry {index} of the {kind} is "
                            f"{_JSON_KINDS[type(entry)]}, not an object")
    return [_converted(f"{path}: entry {index}: ", convert, entry)
            for index, entry in enumerate(payload)]


def _converted(where: str, convert, entry: dict):
    try:
        return convert(entry)
    except KeyError as exc:
        raise DataError(f"{where}missing field {exc.args[0]!r}") from None
    except (TypeError, AttributeError, ValueError) as exc:
        raise DataError(f"{where}{exc}") from None


_REQUIRED = object()


def json_field(record: dict, name: str, *kinds: type, default=_REQUIRED):
    """``record[name]``, refused with a ``DataError`` naming the field
    unless its type is one of ``kinds`` (a JSON ``true`` is no number);
    ``default`` where the field is missing, if one is given."""
    if default is not _REQUIRED and name not in record:
        return default
    value = record[name]
    if type(value) not in kinds:
        expected = " or ".join(dict.fromkeys(_JSON_KINDS[kind] for kind in kinds))
        raise DataError(f"field {name!r} must be {expected}, "
                        f"found {_JSON_KINDS[type(value)]}")
    return value
