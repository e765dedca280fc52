"""Guards for the "one copy" rules.

- One exchange: every shuffle, two-sided tag and join lives in
  ``spel_ray/state/shuffle.py`` (``bucketed_groupby`` / ``cogroup`` /
  ``bucketed_join``). Any other module that calls ``Dataset.join``, builds a
  ``"_side"`` tag or calls ``.groupby(...).map_groups`` fails unless it is
  allowlisted below with its reason.
- One grouped aggregate and one bucket hash: an Arrow
  ``.group_by(...).aggregate(...)`` and ``stable_str_hash`` appear only in
  ``spel_ray/state/shuffle.py`` (``bucketed_aggregate`` /
  ``add_bucket_column``); other modules aggregate and route through them.
  Every function handed to an exchange or to ``map_batches`` is a named
  ``def``, never a ``lambda``, so a plan's stats name each operator.
- One partial top-k: ``select_k_unstable``, a pandas
  ``.groupby(...).head(`` or ``.sort_values(...).head(``, a Ray
  ``.sort(...).limit(`` chain and a ``[:k]`` slice of ``sorted(...)`` or of
  an ``np.lexsort`` / ``np.argsort`` order appear only in
  ``spel_ray/state/shuffle.py``; every "best k per group" runs
  ``topk_rows`` / ``bucketed_topk``.
- One committer: ``"manifest.json"`` and the ``os.replace`` commit appear only
  in ``spel_ray/state/checkpoint.py`` (``CheckpointedRun.run_stage``); other
  modules checkpoint through it.
- One pair kernel: in-block pair enumeration (``np.triu_indices``) and a
  ``"_pk"`` pair-key column appear only in ``spel_ray/stages/pairs.py``
  (``block_pairs`` / ``merge_pairs``); other pair producers call them.
- One sketch path: only ``spel_ray/stages/minhash.py`` calls the per-text
  views ``.signature(`` / ``.token_signature(`` / ``.shingle_hashes(``;
  every other module sketches a batch through ``MinHasher.__call__``. Inside
  it, ``hashlib.md5`` runs only in the batch token-vocabulary step.
- One blocker: only ``spel_ray/stages/blocking.py`` constructs a
  ``BlockKeyExploder``; batch linkage, serving queries and upserts get
  their block rows from ``blocker_for(cfg)``.
- One pair verdict: only ``spel_ray/stages/scoring.py`` calls
  ``.score_pairs(`` (``score_gather``, over ``block_features``-style dicts)
  or compares against ``score_threshold`` (``matches``: exact or score ≥
  the threshold); pair-gen, hard negatives, stats, blocking quality and
  the serving probe call them.
- Named UDFs: no function in ``spel_ray`` is called ``partial`` (it would
  shadow ``functools.partial``, and a plan's stats would read
  ``MapBatches(partial)``); each is named after what it computes.
- One batch format: no ``"pandas"`` literal (``batch_format="pandas"`` as
  an argument or a parameter default) appears in ``spel_ray``, and no
  ``bucketed_groupby`` call passes ``batch_format``: every exchange bucket
  is an Arrow table.
  Driver queries may still return a DataFrame at the very end.
"""

import ast
from pathlib import Path

PKG = Path(__file__).resolve().parent.parent / "spel_ray"
EXCHANGE = "state/shuffle.py"

# (module, enclosing function) -> why it may shuffle by hand
ALLOWED = {
    ("functions/dedup.py", "sorted_neighborhood_pairs"):
        "sorted-neighborhood range partition: buckets must preserve key "
        "order, which a hash bucket cannot",
}


# (module, enclosing function) -> why it may rank by hand
TOPK_ALLOWED = {
    ("stages/candidates.py", "canonicalize_candidates"):
        "ranks one record's own Python list of candidates inside a per-row "
        "loop, not a dataset or a batch",
}


COMMITTER = "state/checkpoint.py"

# (module, enclosing function) -> why it may commit a directory by rename
COMMIT_ALLOWED = {
    ("sources/synth.py", "synth_parquet_path"):
        "test-data cache: a generated corpus renamed into place once, with "
        "no manifest, config or resume",
}


PAIR_KERNEL = "stages/pairs.py"

# (module, enclosing function) -> why it may enumerate pairs by hand
PAIR_ALLOWED = {
    ("stages/evaluate.py", "blocking_quality"):
        "gold pairs: every pair of a small labeled sample, with no blocks, "
        "cap or merge — the truth the pair kernel's output is measured "
        "against",
}


SKETCH = "stages/minhash.py"
PER_TEXT_VIEWS = ("signature", "token_signature", "shingle_hashes")

# enclosing function inside the sketch module -> why it may call md5
MD5_ALLOWED = {
    "_token_vocab":
        "the batch token vocabulary: md5 once per distinct token of a "
        "batch, bit-identical to the oracles' md5_number_upper",
}


def _nodes(tree: ast.AST):
    """(enclosing top-level function, node) for every node of a module."""
    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                and func is None:
            func = node.name
        yield func, node
        for child in ast.iter_child_nodes(node):
            yield from visit(child, func)

    return visit(tree, None)


def _violations(tree: ast.AST):
    """(function, line, what) for every hand-rolled exchange in a module."""
    found = []
    for func, node in _nodes(tree):
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
    return found


def _chain(node: ast.AST, outer: str, inner: str) -> bool:
    """``node`` is a call ``<recv>.inner(...).outer(...)``."""
    return isinstance(node, ast.Call) \
        and isinstance(node.func, ast.Attribute) and node.func.attr == outer \
        and isinstance(node.func.value, ast.Call) \
        and isinstance(node.func.value.func, ast.Attribute) \
        and node.func.value.func.attr == inner


SORTS = ("sorted", "lexsort", "argsort")


def _sorts(node: ast.AST) -> bool:
    """``node`` calls ``sorted`` / ``np.lexsort`` / ``np.argsort``."""
    return any(isinstance(n, ast.Call)
               and getattr(n.func, "id", getattr(n.func, "attr", None))
               in SORTS for n in ast.walk(node))


def _head_slice(node: ast.AST) -> bool:
    """``node`` is a ``<recv>[:k]`` head slice (no start or step; an end
    that is not a negative literal such as ``[:-1]``)."""
    s = getattr(node, "slice", None)
    return isinstance(node, ast.Subscript) and isinstance(s, ast.Slice) \
        and s.lower is None and s.step is None and s.upper is not None \
        and not (isinstance(s.upper, ast.UnaryOp)
                 and isinstance(s.upper.op, ast.USub))


def _topks(tree: ast.AST):
    """(function, line, what) for every hand-rolled top-k: a ``[:k]`` of a
    sort counts whether the sort is sliced directly or through a name
    assigned from it in the same top-level function."""
    ordered: dict = {}
    for func, node in _nodes(tree):
        if isinstance(node, ast.Assign) and _sorts(node.value):
            ordered.setdefault(func, set()).update(
                t.id for t in node.targets if isinstance(t, ast.Name))
    found = []
    for func, node in _nodes(tree):
        if _head_slice(node) and (
                _sorts(node.value)
                or (isinstance(node.value, ast.Name)
                    and node.value.id in ordered.get(func, ()))):
            found.append((func, node.lineno, "[:k] of a sort"))
        if isinstance(node, ast.Attribute) \
                and node.attr == "select_k_unstable":
            found.append((func, node.lineno, "select_k_unstable"))
        for outer, inner in (("head", "groupby"), ("head", "sort_values"),
                             ("limit", "sort")):
            if _chain(node, outer, inner):
                found.append((func, node.lineno, f".{inner}().{outer}("))
    return found


def _commits(tree: ast.AST):
    """(function, line, what) for every manifest name or rename commit."""
    found = []
    for func, node in _nodes(tree):
        if isinstance(node, ast.Constant) and node.value == "manifest.json":
            found.append((func, node.lineno, '"manifest.json"'))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
                and node.func.attr == "replace" \
                and isinstance(node.func.value, ast.Name) \
                and node.func.value.id == "os":
            found.append((func, node.lineno, "os.replace"))
    return found


def _pair_kernels(tree: ast.AST):
    """(function, line, what) for every in-block enumeration or pair-key
    column."""
    found = []
    for func, node in _nodes(tree):
        if isinstance(node, ast.Constant) and node.value == "_pk":
            found.append((func, node.lineno, '"_pk" column'))
        if isinstance(node, ast.Attribute) and node.attr == "triu_indices":
            found.append((func, node.lineno, "np.triu_indices"))
    return found


EXCHANGE_CALLS = ("bucketed_groupby", "bucketed_aggregate", "cogroup")
# calls whose function argument names an operator in a plan's stats
NAMED_UDF_CALLS = (*EXCHANGE_CALLS, "map_batches")


def _aggregates(tree: ast.AST):
    """(function, line, what) for every Arrow grouped aggregate or routing
    hash."""
    found = []
    for func, node in _nodes(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
                and node.func.attr == "aggregate" \
                and isinstance(node.func.value, ast.Call) \
                and isinstance(node.func.value.func, ast.Attribute) \
                and node.func.value.func.attr == "group_by":
            found.append((func, node.lineno, ".group_by().aggregate"))
        if (isinstance(node, ast.Name) and node.id == "stable_str_hash") or \
                (isinstance(node, ast.alias)
                 and node.name == "stable_str_hash"):
            found.append((func, getattr(node, "lineno", 0),
                          "stable_str_hash"))
    return found


def _exchange_lambdas(tree: ast.AST):
    """(function, line, callee) for every exchange or map_batches call given
    a lambda."""
    found = []
    for func, node in _nodes(tree):
        if not isinstance(node, ast.Call):
            continue
        callee = getattr(node.func, "id", getattr(node.func, "attr", None))
        args = list(node.args) + [kw.value for kw in node.keywords]
        if callee in NAMED_UDF_CALLS \
                and any(isinstance(a, ast.Lambda) for a in args):
            found.append((func, node.lineno, callee))
    return found


def _sketch_calls(tree: ast.AST):
    """(function, line, what) for every per-text sketch view call or md5."""
    found = []
    for func, node in _nodes(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
                and node.func.attr in PER_TEXT_VIEWS:
            found.append((func, node.lineno, f".{node.func.attr}("))
        if (isinstance(node, ast.Attribute) and node.attr == "md5") or \
                (isinstance(node, ast.alias) and node.name == "md5"):
            found.append((func, getattr(node, "lineno", 0), "md5"))
    return found


def _modules():
    for path in sorted(PKG.rglob("*.py")):
        yield path.relative_to(PKG).as_posix(), ast.parse(path.read_text())


def test_only_shuffle_module_exchanges():
    bad = []
    for mod, tree in _modules():
        if mod == EXCHANGE:
            continue
        for func, line, what in _violations(tree):
            if (mod, func) not in ALLOWED:
                bad.append(f"spel_ray/{mod}:{line} ({func}): {what}")
    assert not bad, ("hand-rolled exchange outside state/shuffle.py — use "
                     "bucketed_groupby / cogroup / bucketed_join:\n"
                     + "\n".join(bad))


def test_one_topk():
    bad = []
    for mod, tree in _modules():
        if mod == EXCHANGE:
            continue
        for func, line, what in _topks(tree):
            if (mod, func) not in TOPK_ALLOWED:
                bad.append(f"spel_ray/{mod}:{line} ({func}): {what}")
    assert not bad, ("hand-rolled top-k outside state/shuffle.py — use "
                     "topk_rows / bucketed_topk:\n" + "\n".join(bad))


def test_only_checkpoint_module_commits():
    bad = []
    for mod, tree in _modules():
        if mod == COMMITTER:
            continue
        for func, line, what in _commits(tree):
            if (mod, func) not in COMMIT_ALLOWED:
                bad.append(f"spel_ray/{mod}:{line} ({func}): {what}")
    assert not bad, ("hand-rolled Parquet+manifest commit outside "
                     "state/checkpoint.py — use CheckpointedRun.run_stage:\n"
                     + "\n".join(bad))


def test_only_pair_module_enumerates_pairs():
    bad = []
    for mod, tree in _modules():
        if mod == PAIR_KERNEL:
            continue
        for func, line, what in _pair_kernels(tree):
            if (mod, func) not in PAIR_ALLOWED:
                bad.append(f"spel_ray/{mod}:{line} ({func}): {what}")
    assert not bad, ("hand-rolled pair enumeration or pair merge outside "
                     "stages/pairs.py — use block_pairs / bucket_pairs / "
                     "merge_pairs:\n" + "\n".join(bad))


def _outside_shuffle(what: str) -> list[str]:
    return [f"spel_ray/{mod}:{line} ({func}): {w}"
            for mod, tree in _modules() if mod != EXCHANGE
            for func, line, w in _aggregates(tree) if w == what]


def test_only_shuffle_module_aggregates():
    bad = _outside_shuffle(".group_by().aggregate")
    assert not bad, ("hand-rolled grouped aggregate outside state/shuffle.py "
                     "— use bucketed_aggregate:\n" + "\n".join(bad))


def test_only_shuffle_module_hashes_keys():
    bad = _outside_shuffle("stable_str_hash")
    assert not bad, ("hand-rolled routing hash outside state/shuffle.py — "
                     "key the exchange on the column itself:\n"
                     + "\n".join(bad))


def test_exchange_functions_are_named():
    bad = []
    for mod, tree in _modules():
        bad += [f"spel_ray/{mod}:{line} ({func}): lambda passed to {callee}"
                for func, line, callee in _exchange_lambdas(tree)]
    assert not bad, ("pass a named def to the exchange or map_batches:\n"
                     + "\n".join(bad))


BLOCKING = "stages/blocking.py"


def test_only_blocking_module_builds_exploders():
    bad = [f"spel_ray/{mod}:{node.lineno} ({func})"
           for mod, tree in _modules() if mod != BLOCKING
           for func, node in _nodes(tree)
           if isinstance(node, ast.Call)
           and getattr(node.func, "id", getattr(node.func, "attr", None))
           == "BlockKeyExploder"]
    assert not bad, ("block rows come from blocking.blocker_for(cfg), not a "
                     "hand-built BlockKeyExploder:\n" + "\n".join(bad))


def test_one_sketch_path():
    bad = []
    for mod, tree in _modules():
        for func, line, what in _sketch_calls(tree):
            where = f"spel_ray/{mod}:{line} ({func}): {what}"
            if what == "md5":
                if mod == SKETCH and func not in MD5_ALLOWED:
                    bad.append(where)
            elif mod != SKETCH:
                bad.append(where)
    assert not bad, ("per-text sketch outside stages/minhash.py or md5 "
                     "outside its batch token vocabulary — sketch a batch "
                     "with MinHasher(cfg)(table):\n" + "\n".join(bad))


VERDICT = "stages/scoring.py"

# (module, enclosing function) -> why it may score or threshold by hand
VERDICT_ALLOWED: dict = {}

COMPARE_CALLS = ("greater_equal", "greater", "less", "less_equal")


def _verdicts(tree: ast.AST):
    """(function, line, what) for every scorer call and every comparison
    against ``score_threshold`` — read directly or through a name assigned
    from it in the same top-level function."""
    derived: dict = {}
    for func, node in _nodes(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(n, ast.Attribute) and n.attr == "score_threshold"
                for n in ast.walk(node.value)):
            derived.setdefault(func, set()).update(
                t.id for t in node.targets if isinstance(t, ast.Name))

    def thresholded(func, exprs):
        return any((isinstance(n, ast.Attribute)
                    and n.attr == "score_threshold")
                   or (isinstance(n, ast.Name)
                       and n.id in derived.get(func, ()))
                   for e in exprs for n in ast.walk(e))

    found = []
    for func, node in _nodes(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            if node.func.attr == "score_pairs":
                found.append((func, node.lineno, ".score_pairs("))
            if node.func.attr in COMPARE_CALLS \
                    and thresholded(func, node.args):
                found.append((func, node.lineno, "threshold comparison"))
        if isinstance(node, ast.Compare) and any(
                isinstance(op, (ast.Lt, ast.LtE, ast.Gt, ast.GtE))
                for op in node.ops) \
                and thresholded(func, [node.left, *node.comparators]):
            found.append((func, node.lineno, "threshold comparison"))
    return found


def test_only_scoring_module_gives_the_pair_verdict():
    bad = [f"spel_ray/{mod}:{line} ({func}): {what}"
           for mod, tree in _modules() if mod != VERDICT
           for func, line, what in _verdicts(tree)
           if (mod, func) not in VERDICT_ALLOWED]
    assert not bad, ("hand-written scorer call or match rule outside "
                     "stages/scoring.py — use score_gather / matches:\n"
                     + "\n".join(bad))


def test_no_function_is_named_partial():
    bad = [f"spel_ray/{mod}:{node.lineno}" for mod, tree in _modules()
           for _, node in _nodes(tree)
           if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
           and node.name == "partial"]
    assert not bad, ("name the function after what it computes:\n"
                     + "\n".join(bad))


def _pandas_batches(tree: ast.AST):
    """(function, line, what) for every ``"pandas"`` literal (a batch format,
    as an argument or a parameter default) and every bucketed_groupby call
    that picks a batch format."""
    found = []
    for func, node in _nodes(tree):
        if isinstance(node, ast.Constant) and node.value == "pandas":
            found.append((func, node.lineno, '"pandas"'))
        if isinstance(node, ast.Call) \
                and getattr(node.func, "id", getattr(node.func, "attr", None)) \
                == "bucketed_groupby" \
                and any(kw.arg == "batch_format" for kw in node.keywords):
            found.append((func, node.lineno, "bucketed_groupby(batch_format=)"))
    return found


def test_one_batch_format():
    bad = [f"spel_ray/{mod}:{line} ({func}): {what}"
           for mod, tree in _modules()
           for func, line, what in _pandas_batches(tree)]
    assert not bad, ("every exchange bucket is an Arrow table — port the "
                     "bucket function to Arrow:\n" + "\n".join(bad))


def test_allowlist_entries_are_live():
    """An allowlist entry whose exchange, top-k, commit, pair enumeration,
    pair verdict or md5 is gone must be removed."""
    exchanges, commits, pairs, topks = set(), set(), set(), set()
    verdicts = set()
    for mod, tree in _modules():
        exchanges |= {(mod, func) for func, _, _ in _violations(tree)}
        topks |= {(mod, func) for func, _, _ in _topks(tree)}
        commits |= {(mod, func) for func, _, _ in _commits(tree)}
        pairs |= {(mod, func) for func, _, _ in _pair_kernels(tree)}
        verdicts |= {(mod, func) for func, _, _ in _verdicts(tree)}
    assert set(ALLOWED) <= exchanges
    assert set(TOPK_ALLOWED) <= topks
    assert set(COMMIT_ALLOWED) <= commits
    assert set(PAIR_ALLOWED) <= pairs
    assert set(VERDICT_ALLOWED) <= verdicts
    md5 = {func for mod, tree in _modules() if mod == SKETCH
           for func, _, what in _sketch_calls(tree) if what == "md5"}
    assert set(MD5_ALLOWED) <= md5
