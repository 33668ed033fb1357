"""Pytest plugin that lists the statements of `src/xsrank` a run never ran.

Run the suite with it loaded:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src:tests python -m pytest -q -p _unrun

From configuration on, `sys.settrace` and `threading.settrace` record each
line executed in a frame whose file lies under `src/xsrank`; frames
elsewhere are not traced line by line. At session end the tracer
uninstalls itself, and the terminal summary prints every statement no
frame reached, one `file:line text` line each. Docstrings, `def` and
`class` lines, imports and `try:` lines are left out: the first three run
at import, and a `try:` line runs no code of its own. A compound
statement counts as run when a line of its header ran, a simple one when
any of its lines ran. It needs only the standard library, as `coverage`
is not a dependency, and a traced run takes a few times as long.
"""

import ast
import sys
import threading
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "xsrank"
_SKIPPED = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Import,
            ast.ImportFrom, ast.Try, ast.Global, ast.Nonlocal)
if sys.version_info >= (3, 11):
    _SKIPPED += (ast.TryStar,)


def _is_docstring(node, parent) -> bool:
    return (isinstance(parent, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                ast.AsyncFunctionDef))
            and parent.body[0] is node and isinstance(node, ast.Expr)
            and isinstance(node.value, ast.Constant) and isinstance(node.value.value, str))


def _statement_spans(tree):
    """(first line, lines that show the statement ran) per statement."""
    for parent in ast.walk(tree):
        # an except or case clause is walked as a node of its own
        for field in ("body", "orelse", "finalbody"):
            children = getattr(parent, field, None)
            for node in children if isinstance(children, list) else ():
                if not isinstance(node, ast.stmt) or isinstance(node, _SKIPPED):
                    continue
                if _is_docstring(node, parent):
                    continue
                body = getattr(node, "body", None)
                last = body[0].lineno - 1 if body else node.end_lineno
                yield node.lineno, range(node.lineno, max(last, node.lineno) + 1)


class LineTracer:
    """The lines run in frames whose file lies under `PACKAGE`, per file."""

    def __init__(self):
        # a code object's file name -> the run lines of its file, or None
        # for a file outside the package; and the same sets by resolved path
        self._by_name: dict[str, set | None] = {}
        self.by_path: dict[Path, set] = {}

    def trace(self, frame, event, arg):
        name = frame.f_code.co_filename
        lines = self._by_name.get(name, False)
        if lines is False:
            path = Path(name).resolve()
            lines = self._by_name[name] = (self.by_path.setdefault(path, set())
                                           if path.is_relative_to(PACKAGE) else None)
        if lines is None:
            return None
        add = lines.add

        def local(frame, event, arg):
            if event == "line":
                add(frame.f_lineno)
            return local

        return local

    def unrun_statements(self) -> list[str]:
        """`file:line text` for every package statement no traced frame ran."""
        out = []
        for path in sorted(PACKAGE.glob("*.py")):
            source = path.read_text(encoding="utf-8")
            text = source.splitlines()
            ran = self.by_path.get(path, set())
            for first, span in sorted(set(_statement_spans(ast.parse(source)))):
                if ran.isdisjoint(span):
                    rel = path.relative_to(PACKAGE.parents[1])
                    out.append(f"{rel}:{first} {text[first - 1].strip()}")
        return out

    def pytest_sessionfinish(self, session, exitstatus):
        sys.settrace(None)
        threading.settrace(None)

    def pytest_terminal_summary(self, terminalreporter):
        lines = self.unrun_statements()
        terminalreporter.section(f"src/xsrank statements never run: {len(lines)}")
        for line in lines:
            terminalreporter.write_line(line)


def pytest_configure(config):
    tracer = LineTracer()
    config.pluginmanager.register(tracer, "unrun-tracer")
    threading.settrace(tracer.trace)
    sys.settrace(tracer.trace)
