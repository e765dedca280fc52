"""Online serving surface (S7 analog) + multi-granularity resolution (A1)."""

import pandas as pd
import pyarrow as pa
import pytest
import ray
import ray.data as rd

from spel_ray.config import LinkageConfig
from spel_ray.extension import get_scorer
from spel_ray.serving import LinkageIndex, serving_actor
from spel_ray.stages.blocking import blocker_for


def _plugins(cfg):
    """``cfg``'s scorer and blocker, resolved here as ``build`` does."""
    return {"scorer": get_scorer(cfg.scorer), "blocker": blocker_for(cfg)}


def _corpus():
    a = ("def load_records(path, schema):\n"
         "    rows = parse(path)\n"
         "    return [normalize(r, schema) for r in rows]\n")
    b = ("function mergeTables(left, right) {\n"
         "    return left.concat(right).sort();\n}\n")
    c = "SELECT id, name FROM users WHERE active = 1 ORDER BY id"
    return rd.from_arrow(pa.table({
        "repo": ["r1", "r2", "r3"],
        "path": ["a.py", "b.js", "c.sql"],
        "commit": ["c1", "c2", "c3"],
        "lang": ["python", "js", "sql"],
        "content": [a, b, c],
    }))


def test_link_near_duplicate():
    idx = LinkageIndex.build(_corpus(), LinkageConfig())
    near = ("def load_records(path, schema):  # cached\n"
            "    rows = parse(path)\n"
            "    return [normalize(r, schema) for r in rows]\n")
    hits = idx.link(near, lang="python")
    assert hits, "near-duplicate must be found"
    assert hits[0]["score"] >= 0.42
    assert not hits[0]["exact"]


def test_link_exact_duplicate_scores_one():
    idx = LinkageIndex.build(_corpus(), LinkageConfig())
    exact = "SELECT id, name FROM users WHERE active = 1 ORDER BY id"
    hits = idx.link(exact, lang="sql")
    assert hits and hits[0]["exact"] and hits[0]["score"] == 1.0


def test_link_unrelated_returns_nothing():
    idx = LinkageIndex.build(_corpus(), LinkageConfig())
    assert idx.link("completely unrelated prose about gardening and tea",
                    lang="txt") == []


def test_link_empty_corpus():
    empty = rd.from_arrow(pa.table({
        "repo": pa.array([], pa.string()), "path": pa.array([], pa.string()),
        "commit": pa.array([], pa.string()), "lang": pa.array([], pa.string()),
        "content": pa.array([], pa.string()),
    }))
    idx = LinkageIndex.build(empty, LinkageConfig())
    assert idx.link("anything") == []


def test_serving_actor_roundtrip():
    cfg = LinkageConfig()
    idx = LinkageIndex.build(_corpus(), cfg)
    # re-wrap the already-collected block rows in an actor replica
    tbl = idx._to_rows()
    Server = serving_actor(num_cpus=0.5)
    srv = Server.remote(cfg, tbl, **_plugins(cfg))
    near = ("def load_records(path, schema):\n"
            "    rows = parse(path)\n"
            "    return [normalize(r, schema) for r in rows]  # v2\n")
    hits = ray.get(srv.link.remote(near, "python"))
    assert hits and hits[0]["score"] >= 0.42
    ray.kill(srv)


def test_sharded_index_matches_single():
    """VERDICT r2 #4 done-criterion: a corpus split across >=2 shard actors
    must return results identical to the single-index path, for near-dup,
    exact, and no-match queries."""
    from spel_ray.serving import ShardedLinkageIndex
    from spel_ray.sources import read_code_table, synth_parquet_path

    cfg = LinkageConfig()
    corpus = read_code_table(synth_parquet_path(300, seed=7))
    single = LinkageIndex.build(corpus, cfg)
    sharded = ShardedLinkageIndex.build(corpus, cfg, n_shards=3,
                                        num_cpus=0.5)
    # shards must actually split the corpus (not one actor holding it all)
    sizes = ray.get([a.ready.remote() for a in sharded._actors])
    assert sum(1 for s in sizes if s > 0) >= 2, sizes

    sample = corpus.limit(12).to_pandas()
    n_hits = 0
    for _, row in sample.iterrows():
        for q, lang in [(row["content"], row["lang"]),
                        (row["content"] + "\n# trailing change",
                         row["lang"])]:
            a = single.link(q, lang, k=5)
            b = sharded.link(q, lang, k=5)
            assert a == b, (q[:60], a, b)
            n_hits += len(a)
    assert n_hits > 0                      # the comparison saw real matches
    assert sharded.link("unrelated gardening prose, zero overlap") == []
    for a in sharded._actors:
        ray.kill(a)


def test_link_many_matches_link():
    """Batched probing identity (VERDICT r4 #3): link_many must return
    exactly what N per-record link() calls return — on the single index AND
    the sharded index (one actor call per shard per batch) — including
    no-match and empty-content queries interleaved in the batch."""
    from spel_ray.serving import ShardedLinkageIndex
    from spel_ray.sources import read_code_table, synth_parquet_path

    cfg = LinkageConfig()
    corpus = read_code_table(synth_parquet_path(300, seed=7))
    single = LinkageIndex.build(corpus, cfg)
    sharded = ShardedLinkageIndex.build(corpus, cfg, n_shards=3,
                                        num_cpus=0.5)
    sample = corpus.limit(10).to_pandas()
    contents = (list(sample["content"])
                + [c + "\n# trailing change" for c in sample["content"]]
                + ["unrelated gardening prose, zero overlap", ""])
    langs = (list(sample["lang"]) * 2 + ["txt", "txt"])

    want = [single.link(c, lg, k=5) for c, lg in zip(contents, langs)]
    assert sum(len(h) for h in want) > 0
    assert single.link_many(contents, langs, k=5) == want
    assert sharded.link_many(contents, langs, k=5) == want
    for a in sharded._actors:
        ray.kill(a)


def test_link_many_edge_batches():
    """Empty batch and empty/None contents must not crash and must match
    per-record link()."""
    idx = LinkageIndex.build(_corpus(), LinkageConfig())
    assert idx.link_many([]) == []
    assert idx.link_many(["", None], ["txt", "txt"]) == [
        idx.link("", "txt"), idx.link("", "txt")]


def test_link_many_with_live_delta():
    """link_many must see upserted rows exactly like link() does."""
    idx = LinkageIndex.build(_corpus(), LinkageConfig())
    update = pa.table({
        "repo": ["z"], "path": ["new.py"], "commit": ["9" * 40],
        "lang": ["python"], "content": ["brand new delta-resident body()"],
    })
    idx.add(update, compact_ratio=10.0)
    assert idx._delta is not None
    contents = ["brand new delta-resident body()",
                "SELECT id, name FROM users WHERE active = 1 ORDER BY id"]
    langs = ["python", "sql"]
    want = [idx.link(c, lg, k=5) for c, lg in zip(contents, langs)]
    assert want[0] and want[0][0]["exact"]
    assert idx.link_many(contents, langs, k=5) == want


def test_sharded_index_refuses_dirty_index_dir(tmp_path):
    """Ray's write_parquet APPENDS into existing partitions — a reused
    index_dir would mix generations and serve stale rows, so build must
    refuse it (code-review r3 finding #1)."""
    import pytest

    from spel_ray.serving import ShardedLinkageIndex

    d = tmp_path / "idx"
    d.mkdir()
    (d / "stale.parquet").write_bytes(b"x")
    with pytest.raises(ValueError, match="not empty"):
        ShardedLinkageIndex.build(_corpus(), LinkageConfig(), n_shards=2,
                                  index_dir=str(d))


def test_sharded_build_removes_its_temp_dir(tmp_path, monkeypatch):
    """Without ``index_dir`` the shard partitions go to a temp dir, which
    build removes once every shard has loaded; the index still answers
    like the single index."""
    import tempfile

    from spel_ray.serving import ShardedLinkageIndex

    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    cfg = LinkageConfig()
    single = LinkageIndex.build(_corpus(), cfg)
    sharded = ShardedLinkageIndex.build(_corpus(), cfg, n_shards=2,
                                        num_cpus=0.5)
    try:
        assert not list(tmp_path.glob("spel_ray_index_*"))
        queries = [("SELECT id, name FROM users WHERE active = 1 ORDER BY id",
                    "sql"),
                   ("function mergeTables(left, right) {\n"
                    "    return left.concat(right).sort();\n}\n", "js"),
                   ("unrelated gardening prose, zero overlap", "txt")]
        want = [single.link(q, lg) for q, lg in queries]
        assert want[0] and want[1]
        assert [sharded.link(q, lg) for q, lg in queries] == want
    finally:
        for a in sharded._actors:
            ray.kill(a)


def test_ties_rank_by_row_id_on_every_index():
    """Five rows with one content under different (repo, path, commit),
    two in main and three upserted into a live delta: at k=2 every index
    answers the two smallest row_ids at score 1.0, exact — with the delta
    live, after compaction, on 3 shards and on a replica actor — and a
    batch holding the query twice answers both copies the same."""
    from spel_ray.serving import ShardedLinkageIndex
    from tests.conftest import row_id_of

    body = "def same_body(x):\n    return [x * 2 for _ in range(3)]\n"
    keys = sorted([(f"r{i}", f"p{i}.py", f"c{i}") for i in range(5)],
                  key=lambda k: row_id_of(*k))
    # the smallest row_id goes to the delta, the second smallest to main
    rows = pa.Table.from_pylist([
        {"repo": r, "path": p, "commit": c, "lang": "python",
         "content": body} for r, p, c in keys[1::2] + keys[0::2]])
    want = [{"row_id": row_id_of(*k), "score": 1.0, "exact": True}
            for k in keys[:2]]
    cfg = LinkageConfig()
    idx = LinkageIndex.build(rd.from_arrow(rows.slice(0, 2)), cfg)
    idx.add(rows.slice(2), compact_ratio=10.0)
    assert idx._delta is not None
    assert idx.link(body, "python", k=2) == want
    got = idx.link_many([body, "unrelated gardening prose", body],
                        ["python", "txt", "python"], k=2)
    assert got[0] == got[2] == want and got[1] == []

    idx.add(rows.slice(0, 0), compact_ratio=0.0)        # force compaction
    assert idx._delta is None
    assert idx.link(body, "python", k=2) == want

    sharded = ShardedLinkageIndex.build(rd.from_arrow(rows), cfg,
                                        n_shards=3, num_cpus=0.5)
    replica = serving_actor(num_cpus=0.5).remote(cfg, idx._to_rows(),
                                                 **_plugins(cfg))
    try:
        assert sharded.link(body, "python", k=2) == want
        assert ray.get(replica.link.remote(body, "python", 2)) == want
    finally:
        for a in [*sharded._actors, replica]:
            ray.kill(a)


def test_multigrain_resolution():
    from spel_ray.stages.candidates import resolve_multigrain

    cands = pd.DataFrame({
        "cand_id": [1, 2],
        "repr_content": [
            "def load_records(path, schema): return parse(path)",
            "SELECT id, name FROM users WHERE active = 1",
        ],
        "lang": ["python", "sql"],
    })
    records = rd.from_arrow(pa.table({
        "row_id": [10, 11, 12],
        "norm_content": [
            "def load_records(path, schema): return parse(path) # same",
            "SELECT id, name FROM users WHERE active = 1 ORDER BY id",
            "completely unrelated gardening prose with zero overlap",
        ],
    }))
    out = resolve_multigrain(records, cands, k=3, min_score=0.3) \
        .to_pandas().set_index("row_id").sort_index()
    assert out.loc[10, "resolved_cand"] == 1
    assert out.loc[11, "resolved_cand"] == 2
    assert out.loc[12, "resolved_cand"] == 0      # NO_MATCH
    assert out.loc[10, "n_surviving"] >= 1


def test_index_add_matches_full_rebuild():
    """Online upsert identity: build on 300 rows, add 100 more in two
    batches, links must equal an index built on all 400 at once — both with
    the delta segment live and after forced compaction."""
    import ray.data as rd

    from spel_ray.config import LinkageConfig
    from spel_ray.serving import LinkageIndex
    from spel_ray.sources.synth import generate_code_table

    cfg = LinkageConfig()
    t = generate_code_table(400, seed=3).drop_columns(["ancestor_id"])
    base, inc1, inc2 = t.slice(0, 300), t.slice(300, 50), t.slice(350, 50)

    idx = LinkageIndex.build(rd.from_arrow(base), cfg)
    # huge ratio: keep the delta segment live (merge path exercised)
    idx.add(inc1, compact_ratio=10.0)
    idx.add(inc2, compact_ratio=10.0)
    assert idx._delta is not None

    full = LinkageIndex.build(rd.from_arrow(t), cfg)
    probes = t.slice(250, 60)
    for c, lg in zip(probes["content"].to_pylist(),
                     probes["lang"].to_pylist()):
        assert idx.link(c, lg, k=5) == full.link(c, lg, k=5)

    # tiny ratio on a 0-row add: force compaction, identity must survive
    idx.add(t.slice(0, 0), compact_ratio=0.0)
    assert idx._delta is None
    for c, lg in zip(probes["content"].to_pylist()[:20],
                     probes["lang"].to_pylist()[:20]):
        assert idx.link(c, lg, k=5) == full.link(c, lg, k=5)


def test_index_add_is_an_upsert():
    """Re-adding an existing (repo, path, commit) row must REPLACE it —
    link() returns its row_id at most once, and the updated content's
    score is served, both with the delta live and after compaction."""
    import pyarrow as pa
    import ray.data as rd

    from spel_ray.config import LinkageConfig
    from spel_ray.serving import LinkageIndex

    cfg = LinkageConfig()
    old = pa.table({
        "repo": ["a", "b"], "path": ["x.py", "y.py"],
        "commit": ["0" * 40, "1" * 40], "lang": ["python"] * 2,
        "content": ["import os\nrun()", "totally different body here ok"],
    })
    idx = LinkageIndex.build(rd.from_arrow(old), cfg)

    # same identity (a, x.py, commit 0s), NEW content
    update = pa.table({
        "repo": ["a"], "path": ["x.py"], "commit": ["0" * 40],
        "lang": ["python"], "content": ["import sys\nmain()"],
    })
    idx.add(update, compact_ratio=10.0)          # delta stays live
    hits = idx.link("import sys\nmain()", "python", k=5)
    row_ids = [h["row_id"] for h in hits]
    assert len(row_ids) == len(set(row_ids)), hits
    assert hits and hits[0]["exact"], hits       # new version serves
    assert not idx.link("import os\nrun()", "python", k=5,
                        min_score=0.999), "stale version still serving"

    idx.add(update.slice(0, 0), compact_ratio=0.0)   # force compaction
    hits2 = idx.link("import sys\nmain()", "python", k=5)
    assert [h["row_id"] for h in hits2] == row_ids


def test_index_add_keeps_the_last_version_of_a_repeated_key():
    """A batch that repeats a (repo, path, commit) key answers like its
    rows added one at a time: the last version replaces the first, with
    the delta live and after compaction."""
    cfg = LinkageConfig()
    base = pa.table({
        "repo": ["b"], "path": ["y.py"], "commit": ["1" * 40],
        "lang": ["python"], "content": ["totally different body here ok"],
    })
    twice = pa.table({
        "repo": ["a", "a"], "path": ["x.py", "x.py"],
        "commit": ["0" * 40] * 2, "lang": ["python"] * 2,
        "content": ["import os\nrun()", "import sys\nmain()"],
    })
    batch = LinkageIndex.build(rd.from_arrow(base), cfg)
    one_by_one = LinkageIndex.build(rd.from_arrow(base), cfg)
    assert batch.add(twice, compact_ratio=10.0) == 2
    for i in range(twice.num_rows):
        one_by_one.add(twice.slice(i, 1), compact_ratio=10.0)
    probes = twice["content"].to_pylist()
    langs = ["python"] * 2
    for idx in (batch, one_by_one):
        assert not idx.link(probes[0], "python", k=5, min_score=0.999), \
            "the superseded version still links"
        assert idx.link(probes[1], "python", k=5)[0]["exact"]
    assert batch.link_many(probes, langs) == one_by_one.link_many(probes,
                                                                  langs)
    batch.add(twice.slice(0, 0), compact_ratio=0.0)    # force compaction
    assert batch._delta is None
    assert batch.link_many(probes, langs) == one_by_one.link_many(probes,
                                                                  langs)


def test_link_many_rejects_a_dropped_query_row(monkeypatch):
    """A fingerprint pass that loses a query row must fail loudly (even
    under ``python -O``), not hand that query an empty hit list."""
    import spel_ray.serving as serving

    idx = LinkageIndex.build(_corpus(), LinkageConfig())
    real = serving.fingerprint_batch
    monkeypatch.setattr(serving, "fingerprint_batch",
                        lambda t, **kw: real(t, **kw).slice(1))
    with pytest.raises(RuntimeError, match="2 rows for 3 queries"):
        idx.link_many(["a = 1", "b = 2", "c = 3"], ["python"] * 3)


# ------------------------------------------------- upserts, Ray-free index
def _index_of(cfg, table: pa.Table) -> LinkageIndex:
    """A LinkageIndex over a code table, sketched in-process through the
    same stages as ``LinkageIndex.build`` (and as ``add``)."""
    from spel_ray.stages.blocking import BlockKeyExploder
    from spel_ray.stages.fingerprint import fingerprint_batch
    from spel_ray.stages.minhash import MinHasher

    rows = BlockKeyExploder(cfg)(MinHasher(cfg)(fingerprint_batch(
        table, strip_comments=cfg.strip_comments)))
    return LinkageIndex(cfg, rows, **_plugins(cfg))


def _synth400():
    from spel_ray.sources.synth import generate_code_table

    return generate_code_table(400, seed=3).drop_columns(["ancestor_id"])


def _edited(t: pa.Table, tag: str) -> pa.Table:
    """The same (repo, path, commit) rows with new content."""
    content = [f"{c}\n# edit {tag} {i}"
               for i, c in enumerate(t["content"].to_pylist())]
    return t.set_column(t.column_names.index("content"), "content",
                        pa.array(content, pa.string()))


def test_index_upserts_match_a_rebuild_at_every_step():
    """Seeded interleaving of upserts that hit main, re-upserts that hit
    the delta, a never-seen row, an empty add and a forced compaction:
    after every step the live index answers exactly like an index rebuilt
    from the current corpus — including probes with superseded content."""
    import numpy as np

    cfg = LinkageConfig()
    t = _synth400()
    rng = np.random.default_rng(5)
    corpus = t.slice(0, 350)
    idx = _index_of(cfg, corpus)
    key = list(zip(*(corpus[c].to_pylist()
                     for c in ("repo", "path", "commit"))))
    seen = list(corpus["content"].to_pylist())     # every version ever

    def upsert(rows: pa.Table, ratio: float) -> None:
        nonlocal corpus
        idx.add(rows, compact_ratio=ratio)
        cur = corpus.to_pylist()
        where = {k: i for i, k in enumerate(key)}
        for r in rows.to_pylist():
            k = (r["repo"], r["path"], r["commit"])
            if k in where:
                cur[where[k]] = r
            else:
                key.append(k)
                cur.append(r)
        corpus = pa.Table.from_pylist(cur, schema=t.schema)
        seen.extend(rows["content"].to_pylist())

    def take(n: int) -> pa.Table:
        return corpus.take(pa.array(rng.choice(corpus.num_rows, n,
                                               replace=False)))

    main_hit = _edited(take(12), "a")
    steps = [
        ("upsert hitting main", lambda: upsert(main_hit, 10.0)),
        ("re-upsert hitting the delta",
         lambda: upsert(_edited(main_hit.slice(0, 6), "b"), 10.0)),
        ("never-seen row", lambda: upsert(t.slice(380, 1), 10.0)),
        ("empty add", lambda: upsert(t.slice(0, 0), 10.0)),
        ("mixed upsert", lambda: upsert(pa.concat_tables(
            [_edited(take(8), "c"), t.slice(350, 10)]), 10.0)),
        ("forced compaction", lambda: upsert(_edited(take(4), "d"), 0.0)),
        ("upsert hitting the compacted main",
         lambda: upsert(_edited(take(10), "e"), 10.0)),
    ]
    n_hits = 0
    for name, step in steps:
        step()
        if name == "forced compaction":
            assert idx._delta is None and idx._alive.all()
        probes = [seen[i] for i in rng.choice(len(seen), 40, replace=False)]
        probes += seen[-20:] + ["unrelated gardening prose, zero overlap"]
        langs = ["python"] * len(probes)
        want = _index_of(cfg, corpus).link_many(probes, langs, k=5)
        assert idx.link_many(probes, langs, k=5) == want, name
        n_hits += sum(len(h) for h in want)
    assert n_hits > 0


def test_index_upsert_does_not_rebuild_main(monkeypatch):
    """An upsert that supersedes main rows flips their deletion-vector bits
    instead of rebuilding main."""
    import numpy as np

    cfg = LinkageConfig()
    t = _synth400().slice(0, 200)
    idx = _index_of(cfg, t)
    loads = []
    real = idx._load
    monkeypatch.setattr(idx, "_load", lambda rows: (loads.append(rows),
                                                    real(rows)))
    n_main = len(idx._keys)
    idx.add(_edited(t.slice(0, 8), "a"), compact_ratio=10.0)
    idx.add(_edited(t.slice(8, 8), "b"), compact_ratio=10.0)
    assert loads == [], "an upsert rebuilt the main index"
    assert len(idx._keys) == n_main
    dead = idx._row_id[~idx._alive]
    assert len(dead) and set(np.unique(dead)) <= set(
        np.asarray(idx._delta._row_id).tolist())


def test_index_with_dead_rows_equals_its_live_rows():
    """After kills, an index rebuilt from ``_to_rows()`` (live rows only)
    answers exactly like the index carrying the dead rows."""
    import numpy as np

    cfg = LinkageConfig()
    t = _synth400().slice(0, 300)
    idx = _index_of(cfg, t)
    victims = np.unique(idx._row_id)[::7]
    idx._drop_row_ids(victims)
    rebuilt = LinkageIndex(cfg, idx._to_rows(), **_plugins(cfg))
    assert len(rebuilt._keys) == int(idx._alive.sum()) < len(idx._keys)
    probes = t["content"].to_pylist()[:60]
    langs = t["lang"].to_pylist()[:60]
    got = idx.link_many(probes, langs, k=5)
    assert got == rebuilt.link_many(probes, langs, k=5)
    served = {h["row_id"] for hits in got for h in hits}
    assert served and not served & set(victims.tolist())


def test_index_probe_misses_return_nothing():
    """Probe keys with no match, a key above the largest indexed key, a
    key below the smallest, and an empty index all return [] — even at
    score threshold 0, where any colocated row would be a hit."""
    import numpy as np

    from spel_ray.stages.blocking import block_features, block_schema

    cfg = LinkageConfig()
    t = _synth400().slice(0, 100)
    idx = _index_of(cfg, t)
    feats = block_features(_index_of(cfg, t.slice(0, 1))._to_rows(), cfg)
    feats["q"] = np.zeros(len(feats["block_key"]), np.int64)
    assert idx.hits(feats, 0.0, 5).num_rows          # the real keys hit
    # the one-step range gather equals a per-key scan, dead rows skipped
    idx._drop_row_ids(np.unique(idx._row_id)[::3])
    probe = np.r_[feats["block_key"], idx._keys[::50]]
    want = sorted({int(p) for b in probe
                   for p in np.flatnonzero((idx._keys == b) & idx._alive)})
    pos, found_by = idx._live_positions(probe)
    assert np.unique(pos).tolist() == want and want
    assert (idx._keys[pos] == probe[found_by]).all()
    keys = idx._ukeys
    gaps = np.flatnonzero(np.diff(keys) > 1)
    for probe in ([keys[gaps[0]] + 1], [keys[-1] + 1], [keys[0] - 1],
                  [np.iinfo(np.int64).max], []):
        miss = {**feats, "block_key": np.asarray(probe, np.int64),
                "q": np.zeros(len(probe), np.int64)}
        assert idx.hits(miss, 0.0, 5).num_rows == 0, probe
    empty = LinkageIndex(cfg, block_schema(cfg).empty_table(),
                         **_plugins(cfg))
    assert empty.hits(feats, 0.0, 5).num_rows == 0
    assert empty.link_many(t["content"].to_pylist()[:3]) == [[], [], []]


def test_probe_scores_each_candidate_once(monkeypatch):
    """Each segment hands the scorer each ``(q, row_id)`` at most once,
    although an indexed exact copy sits under every one of the query's
    block keys and a near-duplicate under many."""
    import spel_ray.serving as serving

    cfg = LinkageConfig()
    t = _synth400().slice(0, 200)
    idx = _index_of(cfg, t)
    idx.add(_edited(t.slice(0, 8), "a"), compact_ratio=10.0)
    assert idx._delta is not None
    # exact copies of main rows, near-duplicates of them, exact copies of
    # the delta's rows
    probes = (t["content"].to_pylist()[8:16]
              + _edited(t.slice(8, 8), "b")["content"].to_pylist()
              + _edited(t.slice(0, 8), "a")["content"].to_pylist())
    langs = t["lang"].to_pylist()[8:16] * 2 + t["lang"].to_pylist()[:8]
    calls = []
    real = serving.score_gather

    def counting(scorer, cfg, a, ia, b, ib):
        calls.append((a["q"][ia], b["row_id"][ib]))
        return real(scorer, cfg, a, ia, b, ib)

    monkeypatch.setattr(serving, "score_gather", counting)
    got = idx.link_many(probes, langs, k=5)
    assert len(calls) == 2                        # main and the delta
    for q, rid in calls:
        pairs = set(zip(q.tolist(), rid.tolist()))
        assert len(pairs) == len(q), "a (q, row_id) was scored twice"
    # an exact copy is found under each of its keys: the dedup had work
    f, _ = serving._query_features(cfg, idx._blocker, probes[:1], langs[:1],
                                   None)
    pos, _ = idx._live_positions(f["block_key"])
    assert got[0][0]["exact"]
    assert (idx._row_id[pos] == got[0][0]["row_id"]).sum() > 1


def _register_rekeyed_blocker():
    """A blocker that files every default block row under another key
    (``block_key ^ 0x5A5A``): registered from function scope, so it is
    cloudpickled by value like a user plugin workers cannot import."""
    import numpy as np

    from spel_ray.extension import get_blocker_factory, register_blocker

    @register_blocker("test-rekeyed")
    def rekeyed_blocker(cfg):
        default = get_blocker_factory("lsh-minhash")(cfg)

        def rekey(batch: pa.Table) -> pa.Table:
            rows = default(batch)
            keys = np.asarray(rows["block_key"], np.int64) ^ 0x5A5A
            return rows.set_column(0, "block_key", pa.array(keys, pa.int64()))
        return rekey


def test_serving_honours_the_configured_blocker(tmp_path):
    """Queries and upserts are keyed by the same blocker as the corpus: with
    a re-keying blocker an indexed record still finds itself at score 1.0
    on the single index, after add(), and on a 2-shard index."""
    from spel_ray.serving import ShardedLinkageIndex
    from tests.conftest import row_id_of

    _register_rekeyed_blocker()
    cfg = LinkageConfig(blocker="test-rekeyed")
    sql = "SELECT id, name FROM users WHERE active = 1 ORDER BY id"
    want = [{"row_id": row_id_of("r3", "c.sql", "c3"), "score": 1.0,
             "exact": True}]
    idx = LinkageIndex.build(_corpus(), cfg)
    assert idx.link(sql, lang="sql") == want

    new = "def brand_new_record(x):\n    return {'fresh': x * 7}\n"
    idx.add(pa.table({"repo": ["r9"], "path": ["n.py"], "commit": ["c9"],
                      "lang": ["python"], "content": [new]}))
    assert idx.link(new, lang="python") == [
        {"row_id": row_id_of("r9", "n.py", "c9"), "score": 1.0,
         "exact": True}]

    sharded = ShardedLinkageIndex.build(_corpus(), cfg, n_shards=2,
                                        num_cpus=0.5,
                                        index_dir=str(tmp_path / "idx"))
    try:
        assert sharded.link(sql, lang="sql") == want
    finally:
        for a in sharded._actors:
            ray.kill(a)
