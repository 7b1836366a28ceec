"""Documentation integrity: links resolve, docs are reachable, CLI
snippets match the real argparse tree.

This is the test behind the CI ``docs`` job:

* every intra-repo markdown link in README, the root design documents
  (``ROOT_DOCS``) and ``docs/`` points at a file that exists;
* every file in ``docs/`` is referenced from README (nothing orphaned);
* every ``python -m repro ...`` command shown in README, the docs, and
  the ``repro.__main__`` docstring parses against ``build_parser()`` —
  usage examples cannot drift from the actual CLI again;
* every backticked dotted ``repro.…`` name in the same files resolves
  by import plus ``getattr`` — docs cannot name a module or attribute
  that is gone.
"""

import importlib
import os
import re
import shlex

import pytest

import repro.__main__ as cli_module
from repro.__main__ import build_parser

REPO_ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), ".."))
DOCS_DIR = os.path.join(REPO_ROOT, "docs")

#: The root documents the link and name checks cover: README and the
#: design, experiment, paper and planning documents.  Other root markdown
#: files are transient working notes, not documentation.
ROOT_DOCS = [
    "CHANGES.md", "DESIGN.md", "EXPERIMENTS.md", "PAPER.md", "PAPERS.md",
    "README.md", "ROADMAP.md", "SNIPPETS.md",
]

DOC_FILES = sorted(
    [os.path.join(REPO_ROOT, name) for name in ROOT_DOCS]
    + [
        os.path.join(DOCS_DIR, name)
        for name in os.listdir(DOCS_DIR)
        if name.endswith(".md")
    ]
)

_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
_DOTTED_NAME = re.compile(r"`(repro(?:\.\w+)+)`")


def _relpath(path):
    return os.path.relpath(path, REPO_ROOT)


def _markdown_links(path):
    with open(path, encoding="utf-8") as handle:
        text = handle.read()
    return _LINK.findall(text)


def _fenced_blocks(text):
    """Return the concatenated contents of all shell code blocks."""
    blocks = re.findall(r"```(?:bash|sh|console)\n(.*?)```", text, flags=re.DOTALL)
    return "\n".join(blocks)


def _iter_repro_commands(text):
    """Yield every ``python -m repro ...`` invocation in *text* as argv
    (continuation lines joined, env-var prefixes and comments stripped)."""
    logical_lines = []
    pending = ""
    for raw in text.split("\n"):
        line = pending + raw.strip()
        if line.endswith("\\"):
            pending = line[:-1] + " "
            continue
        pending = ""
        logical_lines.append(line)
    for line in logical_lines:
        marker = "python -m repro"
        index = line.find(marker)
        if index < 0:
            continue
        prefix = line[:index].strip()
        # allow env-assignment prefixes (VAR=value python -m repro ...)
        if prefix and not all(
            re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*=\S*", token)
            for token in prefix.split()
        ):
            continue
        tail = line[index + len(marker):]
        yield shlex.split(tail, comments=True)


class TestLinksResolve:
    @pytest.mark.parametrize("path", DOC_FILES, ids=_relpath)
    def test_intra_repo_links_exist(self, path):
        broken = []
        for target in _markdown_links(path):
            if target.startswith(("http://", "https://", "mailto:", "#")):
                continue
            relative = target.split("#", 1)[0]
            if not relative:
                continue
            resolved = os.path.normpath(
                os.path.join(os.path.dirname(path), relative)
            )
            if not os.path.exists(resolved):
                broken.append(target)
        assert not broken, (
            f"{_relpath(path)} has broken intra-repo links: {broken}"
        )


def _resolve(name):
    """Import the longest module prefix of dotted *name*, then ``getattr``
    the rest."""
    parts = name.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attr in parts[cut:]:
            obj = getattr(obj, attr)
        return obj
    raise ImportError(name)


class TestDottedNamesResolve:
    @pytest.mark.parametrize("path", DOC_FILES, ids=_relpath)
    def test_repro_names_resolve(self, path):
        with open(path, encoding="utf-8") as handle:
            names = sorted(set(_DOTTED_NAME.findall(handle.read())))
        missing = []
        for name in names:
            try:
                _resolve(name)
            except (ImportError, AttributeError):
                missing.append(name)
        assert not missing, f"{_relpath(path)} names what does not exist: {missing}"


class TestDocsReachable:
    def test_every_doc_is_referenced_from_readme(self):
        readme = os.path.join(REPO_ROOT, "README.md")
        links = {
            os.path.normpath(os.path.join(REPO_ROOT, t.split("#", 1)[0]))
            for t in _markdown_links(readme)
            if not t.startswith(("http://", "https://", "mailto:", "#"))
        }
        orphans = [
            name
            for name in sorted(os.listdir(DOCS_DIR))
            if name.endswith(".md")
            and os.path.join(DOCS_DIR, name) not in links
        ]
        assert not orphans, (
            f"docs not referenced from README.md: {orphans} — add a link "
            "so every document is reachable from the front page"
        )

    def test_docs_cross_link_into_the_architecture_map(self):
        # every deep-dive must point back at the map (directly)
        for name in sorted(os.listdir(DOCS_DIR)):
            if not name.endswith(".md") or name == "ARCHITECTURE.md":
                continue
            links = _markdown_links(os.path.join(DOCS_DIR, name))
            assert any("ARCHITECTURE.md" in target for target in links), (
                f"docs/{name} does not link docs/ARCHITECTURE.md"
            )


class TestCliSnippetsParse:
    def _assert_commands_parse(self, text, source):
        parser = build_parser()
        commands = list(_iter_repro_commands(text))
        assert commands, f"no 'python -m repro' snippets found in {source}"
        for argv in commands:
            if not argv:
                continue
            try:
                parser.parse_args(argv)
            except SystemExit:
                pytest.fail(
                    f"{source}: documented command does not parse: "
                    f"python -m repro {' '.join(argv)}"
                )

    def test_readme_cli_snippets(self):
        with open(os.path.join(REPO_ROOT, "README.md"), encoding="utf-8") as f:
            self._assert_commands_parse(_fenced_blocks(f.read()), "README.md")

    def test_docs_cli_snippets(self):
        for name in sorted(os.listdir(DOCS_DIR)):
            if not name.endswith(".md"):
                continue
            path = os.path.join(DOCS_DIR, name)
            with open(path, encoding="utf-8") as handle:
                text = handle.read()
            commands = list(_iter_repro_commands(_fenced_blocks(text)))
            for argv in commands:
                try:
                    build_parser().parse_args(argv)
                except SystemExit:
                    pytest.fail(
                        f"docs/{name}: documented command does not parse: "
                        f"python -m repro {' '.join(argv)}"
                    )

    def test_module_docstring_usage(self):
        self._assert_commands_parse(
            cli_module.__doc__, "repro.__main__ docstring"
        )

    def test_every_subcommand_is_documented_in_readme(self):
        """The README's Command line section must mention every
        subcommand the parser actually defines."""
        with open(os.path.join(REPO_ROOT, "README.md"), encoding="utf-8") as f:
            readme = f.read()
        parser = build_parser()
        subactions = [
            action
            for action in parser._actions
            if hasattr(action, "choices") and action.choices
        ]
        assert subactions, "parser grew no subcommands?"
        for name in subactions[0].choices:
            assert f"python -m repro {name}" in readme, (
                f"README.md Command line section is missing the "
                f"{name!r} subcommand"
            )
