"""``open_output``, the one way the package writes a file."""

import ast
import os
import stat
from pathlib import Path

import pytest

from crowdscore.keyvalue import open_output

SRC = Path(__file__).resolve().parent.parent / "src" / "crowdscore"
HELPER = ("keyvalue.py", "open_output")


def test_shorter_output_over_a_longer_file_leaves_exactly_the_new_bytes(tmp_path):
    path = tmp_path / "out.csv"
    path.write_bytes(b"old,row\n" * 200)
    inode = path.stat().st_ino
    with open_output(path) as fh:
        fh.write("a,b\r\n1,2\r\n")
    assert path.read_bytes() == b"a,b\r\n1,2\r\n"  # newline="": no translation
    assert path.stat().st_ino == inode


def test_longer_output_over_a_shorter_file_and_a_new_file(tmp_path):
    path = tmp_path / "out.txt"
    path.write_bytes(b"xy")
    with open_output(path) as fh:
        fh.write("k = é\n")
    assert path.read_bytes() == "k = é\n".encode("utf-8")
    fresh = tmp_path / "fresh.txt"
    with open_output(str(fresh)) as fh:
        fh.write("new\n")
    assert fresh.read_bytes() == b"new\n"


def test_a_failed_write_leaves_an_empty_file_and_propagates(tmp_path):
    path = tmp_path / "out.txt"
    path.write_bytes(b"z" * 1024)
    with pytest.raises(OSError) as info:
        with open_output(path) as fh:
            fh.write("abc")
            raise OSError(28, "No space left on device")
    assert info.value.errno == 28
    assert path.read_bytes() == b""


def test_existing_mode_is_kept(tmp_path):
    path = tmp_path / "out.txt"
    path.write_bytes(b"old contents\n")
    path.chmod(0o640)
    with open_output(path) as fh:
        fh.write("new\n")
    assert stat.S_IMODE(path.stat().st_mode) == 0o640
    assert path.read_bytes() == b"new\n"


def test_a_symlink_is_written_through(tmp_path):
    target = tmp_path / "target.txt"
    target.write_bytes(b"a much longer old file\n")
    link = tmp_path / "link.txt"
    link.symlink_to(target)
    with open_output(link) as fh:
        fh.write("new\n")
    assert link.is_symlink()
    assert target.read_bytes() == b"new\n"


def test_devices_are_written_and_never_truncated():
    with open_output(os.devnull) as fh:
        fh.write("discarded\n")
    with pytest.raises(OSError) as info:  # the block's error, not one from truncating
        with open_output(os.devnull) as fh:
            raise OSError(28, "No space left on device")
    assert info.value.errno == 28


def test_a_pipe_is_written_and_never_truncated(tmp_path):
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
    try:
        with open_output(fifo) as fh:
            fh.write("through the pipe\n")
        assert os.read(reader, 100) == b"through the pipe\n"
    finally:
        os.close(reader)


# --- keep every write on the one helper ---


def _is_write_mode(node) -> bool:
    return (isinstance(node, ast.Constant) and isinstance(node.value, str)
            and any(flag in node.value for flag in "wax"))


def _writes(source: str):
    """(line, function) of each call in ``source`` that opens a file for
    writing some other way than ``open_output``; function is the enclosing
    top-level ``def`` or None."""
    found = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            scope = function
            if function is None and isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                scope = child.name
            if isinstance(child, ast.Call):
                func, args = child.func, child.args
                mode = [kw.value for kw in child.keywords if kw.arg == "mode"]
                if isinstance(func, ast.Name) and func.id == "open":
                    mode += args[1:2]
                elif isinstance(func, ast.Attribute) and func.attr == "open":
                    mode += args[:1]
                elif isinstance(func, ast.Attribute) and func.attr in ("write_text", "write_bytes"):
                    found.append((child.lineno, scope))
                if any(_is_write_mode(m) for m in mode):
                    found.append((child.lineno, scope))
            if isinstance(child, (ast.Name, ast.Attribute)) and "O_TRUNC" in (
                getattr(child, "id", None), getattr(child, "attr", None)
            ):
                found.append((child.lineno, scope))
            visit(child, scope)

    visit(ast.parse(source), None)
    return found


def test_the_write_scan_finds_each_other_way_to_write():
    source = (
        "import os\n"
        "from pathlib import Path\n"
        "def f(p):\n"
        "    open(p, 'w')\n"
        "    open(p, mode='a')\n"
        "    open(p, 'xb')\n"
        "    Path(p).open('w', newline='')\n"
        "    Path(p).write_text('x')\n"
        "    Path(p).write_bytes(b'x')\n"
        "    os.open(p, os.O_WRONLY | os.O_TRUNC)\n"
        "    open(p)\n"
        "    open(p, 'r', encoding='utf-8')\n"
        "    Path(p).open(newline='')\n"
    )
    assert [line for line, _ in _writes(source)] == [4, 5, 6, 7, 8, 9, 10]


def test_every_package_write_goes_through_open_output():
    found = []
    for path in sorted(SRC.glob("*.py")):
        found += [(path.name, line, function)
                  for line, function in _writes(path.read_text(encoding="utf-8"))
                  if (path.name, function) != HELPER]
    assert found == []
    helper = (SRC / HELPER[0]).read_text(encoding="utf-8")
    assert [function for _, function in _writes(helper)] == [HELPER[1]]
