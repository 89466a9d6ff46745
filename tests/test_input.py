"""How `load_model` and `parse_model` take their input.

`load_model` opens each path as UTF-8 text and hands `parse_model` the open
file, which the loader reads in chunks; a document that cannot be seeked,
such as a pipe, is read whole first.  The contract pinned here holds for
either way of reading:

- a file that is not UTF-8 anywhere, even past a YAML error, gives one
  `io` diagnostic and nothing else, and so does a UTF-16 file;
- a UTF-8 byte order mark is read past, and CRLF line ends read as LF;
- a reader error is placed at the same line and column as in the `str`;
- a FIFO reads like the file it was fed.

`parse_model` on an open text file gives the diagnostics (messages
included, on libyaml) and the canonical dict it gives on the file's text,
over every fixture and the seeded corpora of `test_parser_table.py`, on
both backends.  PyYAML's pure-Python marks quote no text around them when
they are read from a stream, so there only the messages may differ.
"""

from __future__ import annotations

import codecs
import os
import threading

import pytest
import yaml

from gsnlint import parser
from gsnlint.parser import load_model, parse_model

from conftest import FIXTURES
from genmodels import big_model
from test_loader import BY_BACKEND, COMPOSER_ERRORS
from test_parser_table import aliased_cases, fixture_documents, mutated_cases, outcome

FIXTURE = (FIXTURES / "28-scaffold-default.sac.yaml").read_text(encoding="utf-8")

#: Past the chunks the loader reads before it stops at an early YAML error.
PADDING = "# " + "é" * 100_000 + "\n"


def written(tmp_path, name: str, data: bytes) -> str:
    path = tmp_path / name
    path.write_bytes(data)
    return str(path)


def load_outcome(paths: list[str], lenient: bool = False):
    return outcome(lambda _, lenient: load_model(paths, lenient=lenient), None, lenient)


def text_outcome(documents: list[tuple[str, str]], lenient: bool = False):
    return outcome(parse_model, documents, lenient)


# -- load_model's input contract ---------------------------------------


@pytest.mark.parametrize("padding", ["", PADDING], ids=["near", "far"])
def test_a_non_utf8_byte_after_a_syntax_error_gives_io_only(tmp_path, padding):
    path = written(tmp_path, "bad.sac.yaml",
                   ("model: {id: m}\na: b: c\n" + padding).encode() + b"# \xff\n")
    model, diags = load_model([path])
    assert model is None
    assert [(d.code, d.message, d.file) for d in diags] == [
        ("io", f"cannot read '{path}': not UTF-8 text", path)]


def test_io_diagnostics_come_in_path_order_and_alone(tmp_path):
    """A path that does not open, among files that do, gives only the `io`
    diagnostics, one per document that cannot be read."""
    good = written(tmp_path, "good.sac.yaml", FIXTURE.encode())
    bad = written(tmp_path, "bad.sac.yaml", b"model: {id: m}\n# \xff\n")
    missing = str(tmp_path / "missing.sac.yaml")
    model, diags = load_model([bad, good, missing])
    assert model is None
    assert [(d.code, d.file) for d in diags] == [("io", bad), ("io", missing)]
    assert diags[1].message == f"cannot read '{missing}': No such file or directory"


def test_a_utf16_file_gives_io(tmp_path):
    path = written(tmp_path, "utf16.sac.yaml", FIXTURE.encode("utf-16"))
    assert FIXTURE.encode("utf-16").startswith(codecs.BOM_UTF16)
    model, diags = load_model([path])
    assert model is None
    assert [(d.code, d.message) for d in diags] == [
        ("io", f"cannot read '{path}': not UTF-8 text")]


def test_a_utf8_byte_order_mark_is_read_past(tmp_path):
    path = written(tmp_path, "m.sac.yaml", FIXTURE.encode())
    expected = load_outcome([path])
    assert expected[1] is not None
    written(tmp_path, "m.sac.yaml", codecs.BOM_UTF8 + FIXTURE.encode())
    assert load_outcome([path]) == expected


def test_crlf_reads_as_lf(tmp_path):
    """The same diagnostics, locations and canonical dict; the unknown key
    gives a positioned warning."""
    text = FIXTURE.replace("model:\n", "model:\n  x-note: n\n", 1)
    path = written(tmp_path, "m.sac.yaml", text.encode())
    expected = load_outcome([path], lenient=True)
    assert [d[1] for d in expected[0]] == ["unknown-key"]
    written(tmp_path, "m.sac.yaml", text.replace("\n", "\r\n").encode())
    assert load_outcome([path], lenient=True) == expected


@pytest.mark.parametrize("padding", ["", PADDING], ids=["near", "far"])
def test_a_nul_byte_is_placed_alike_in_the_file_and_the_text(tmp_path, padding):
    """libyaml counts the position in UTF-8 bytes, so the 'é's before the NUL
    tell a byte offset from a character offset."""
    text = "model: {id: m}\n" + padding + "# é\nmodules: [\x00]\n"
    path = written(tmp_path, "nul.sac.yaml", text.encode())
    diags = load_model([path])[1]
    assert [(d.code, d.line, d.column) for d in diags] == [
        ("syntax", text.count("\n"), 11), ("model-header", 1, 1)]
    assert load_outcome([path]) == text_outcome([(path, text)])


def test_a_fifo_reads_like_the_file(tmp_path):
    """Fed by a writer thread with more than a pipe's buffer holds."""
    text = parser.serialize_model(big_model(2000, 1000))
    assert len(text) > 1 << 17
    fifo = str(tmp_path / "fifo.sac.yaml")
    os.mkfifo(fifo)

    def feed():
        with open(fifo, "w", encoding="utf-8") as pipe:
            pipe.write(text)

    writer = threading.Thread(target=feed, daemon=True)
    writer.start()
    try:
        got = load_outcome([fifo])
    finally:
        writer.join(timeout=30)
    assert not writer.is_alive()
    assert got[1] is not None, got[0]
    assert got == text_outcome([(fifo, text)])


# -- an open file reads as its text --------------------------------------


#: Texts YAML refuses: scanner, parser, reader and composer errors.
REFUSED = ["model: {id: m}\na: b: c\n", "model: {id: m\n", "model: {id: m}\nx: 'open\n",
           "model: {id: m}\n# é\nmodules: [\x00]\n",
           *(text for text, _, _ in COMPOSER_ERRORS.values())]


def cases():
    yield from fixture_documents()
    for seed in range(2):
        yield from mutated_cases(60, seed)
        yield from aliased_cases(20, seed)
    yield from ((text, [("refused.sac.yaml", text)]) for text in REFUSED)


def without_syntax_messages(result):
    diags, *rest = result
    return ([d[:2] + d[3:] if d[1] == "syntax" else d for d in diags], *rest)


@pytest.mark.parametrize("loader", BY_BACKEND)
def test_an_open_file_reads_as_its_text(monkeypatch, tmp_path, loader):
    monkeypatch.setattr(parser, "_Loader", loader)
    libyaml = loader is getattr(yaml, "CSafeLoader", None)
    checked = 0
    for context, documents in cases():
        paths = [written(tmp_path, f"doc{i}.sac.yaml", text.encode())
                 for i, (_, text) in enumerate(documents)]
        named = []  # each file's text, as a whole read gives it
        for path in paths:
            with open(path, encoding="utf-8") as handle:
                named.append((path, handle.read()))
        for lenient in (False, True):
            expected = text_outcome(named, lenient)
            handles = [open(path, encoding="utf-8") for path in paths]
            try:
                got = outcome(parse_model, list(zip(paths, handles)), lenient)
            finally:
                for handle in handles:
                    handle.close()
            if not libyaml:  # a pure-Python mark of a stream quotes no text
                expected, got = without_syntax_messages(expected), without_syntax_messages(got)
            assert got == expected, (context, lenient)
            checked += 1
    assert checked == 2 * (len(fixture_documents()) + 2 * (60 + 20) + len(REFUSED))


def test_a_stream_that_fails_to_decode_gives_one_io_diagnostic(tmp_path):
    good = written(tmp_path, "good.sac.yaml", FIXTURE.encode())
    bad = written(tmp_path, "bad.sac.yaml", ("model: {id: m}\na: b: c\n" + PADDING).encode()
                  + b"\xff\n")
    with open(good, encoding="utf-8") as first, open(bad, encoding="utf-8") as second:
        model, diags = parse_model([(good, first), (bad, second)])
    assert model is None
    assert [(d.code, d.message, d.file) for d in diags] == [
        ("io", f"cannot read '{bad}': not UTF-8 text", bad)]
