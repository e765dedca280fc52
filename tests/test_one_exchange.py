"""Guard for the "one exchange" rule: every shuffle, two-sided tag and join
lives in ``spel_ray/state/shuffle.py`` (``bucketed_groupby`` / ``cogroup`` /
``bucketed_join``). Any other module that calls ``Dataset.join``, builds a
``"_side"`` tag or calls ``.groupby(...).map_groups`` fails this test unless
it is allowlisted below with its reason."""

import ast
from pathlib import Path

PKG = Path(__file__).resolve().parent.parent / "spel_ray"
EXCHANGE = "state/shuffle.py"

# (module, enclosing function) -> why it may shuffle by hand
ALLOWED = {
    ("functions/dedup.py", "sorted_neighborhood_pairs"):
        "sorted-neighborhood range partition: buckets must preserve key "
        "order, which a hash bucket cannot",
    ("pipelines/driver_queries.py", "q_topk_per_group"):
        "deliberately exercises Ray's own groupby.map_groups",
}


def _violations(tree: ast.AST):
    """(function, line, what) for every hand-rolled exchange in a module."""
    found = []

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                and func is None:
            func = node.name
        if isinstance(node, ast.Constant) and node.value == "_side":
            found.append((func, node.lineno, '"_side" tag'))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            attr, recv = node.func.attr, node.func.value
            if attr == "map_groups" and isinstance(recv, ast.Call) \
                    and isinstance(recv.func, ast.Attribute) \
                    and recv.func.attr == "groupby":
                found.append((func, node.lineno, ".groupby().map_groups"))
            # str.join takes one positional argument and os.path.join no
            # keywords; Dataset.join is called with join_type/on keywords
            if attr == "join" and any(kw.arg in ("join_type", "on",
                                                 "num_partitions")
                                      for kw in node.keywords):
                found.append((func, node.lineno, "Dataset.join"))
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(tree, None)
    return found


def test_only_shuffle_module_exchanges():
    bad = []
    for path in sorted(PKG.rglob("*.py")):
        mod = path.relative_to(PKG).as_posix()
        if mod == EXCHANGE:
            continue
        for func, line, what in _violations(ast.parse(path.read_text())):
            if (mod, func) not in ALLOWED:
                bad.append(f"spel_ray/{mod}:{line} ({func}): {what}")
    assert not bad, ("hand-rolled exchange outside state/shuffle.py — use "
                     "bucketed_groupby / cogroup / bucketed_join:\n"
                     + "\n".join(bad))


def test_allowlist_entries_are_live():
    """An allowlist entry whose exchange is gone must be removed."""
    live = set()
    for path in PKG.rglob("*.py"):
        mod = path.relative_to(PKG).as_posix()
        live |= {(mod, func) for func, _, _ in
                 _violations(ast.parse(path.read_text()))}
    assert set(ALLOWED) <= live
