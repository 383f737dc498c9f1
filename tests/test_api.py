"""The package's public surface: `qcluster.__all__` against what `__init__` imports.

A name deleted from a module but still listed in `__all__` breaks
`from qcluster import *`; a name imported into `__init__` but not listed is
public by accident.
"""

import ast
from pathlib import Path

import qcluster


def _imported_names():
    tree = ast.parse(Path(qcluster.__file__).read_text())
    return [alias.asname or alias.name for node in tree.body
            if isinstance(node, ast.ImportFrom) for alias in node.names]


def test_every_name_in_all_resolves():
    assert len(set(qcluster.__all__)) == len(qcluster.__all__)
    assert [name for name in qcluster.__all__ if not hasattr(qcluster, name)] == []


def test_every_public_import_is_listed_in_all():
    public = [name for name in _imported_names() if not name.startswith("_")]
    assert public and sorted(set(public) - set(qcluster.__all__)) == []
