"""Text-analysis operators over a documents-like table."""

import pyarrow as pa
import ray.data as rd

from spel_ray.functions.text import (
    TextAnalyzer, analyze_documents, detect_lang, fingerprint_documents,
    rolling_fingerprint)


def _docs():
    return rd.from_arrow(pa.table({
        "doc_id": [0, 1, 2, 3],
        "text": ["the quick brown fox and the lazy dog for a walk in the park",
                 "el perro y el gato en la casa de los abuelos por la tarde",
                 "",
                 "!!! ??? ###"],
    }))


def test_detect_lang():
    assert detect_lang("the cat and the dog is in a house") == "en"
    assert detect_lang("el gato y la casa de los perros") == "es"
    assert detect_lang("der Hund und die Katze ist von den") == "de"
    assert detect_lang("这是一个中文句子，用来测试语言识别功能。") == "zh"
    assert detect_lang("") == "und"


def test_analyze_documents_operator_is_named():
    stats = analyze_documents(_docs()).materialize().stats()
    assert "MapBatches(TextAnalyzer)" in stats and "<lambda>" not in stats


def test_analyze_documents_columns_and_values():
    out = analyze_documents(_docs()).to_pandas().set_index("doc_id")
    assert {"pred_lang", "n_tokens_ws", "n_tokens_bpe", "stop_ratio",
            "punct_ratio", "quality"} <= set(out.columns)
    assert out.loc[0, "pred_lang"] == "en"
    assert out.loc[0, "n_tokens_ws"] == 14
    assert out.loc[2, "n_tokens_ws"] == 0
    assert out.loc[3, "punct_ratio"] > 0.5
    assert out.loc[0, "quality"] > out.loc[3, "quality"]


def test_token_counts_match_python_split():
    out = analyze_documents(_docs()).to_pandas().set_index("doc_id")
    t = _docs().to_pandas().set_index("doc_id")
    for i in t.index:
        assert out.loc[i, "n_tokens_ws"] == len(t.loc[i, "text"].split())


def test_vectorized_analyzer_matches_rowwise_reference():
    """The vectorized TextAnalyzer must match a straightforward per-row
    computation of the same metrics (the pre-vectorization semantics)."""
    import re

    import numpy as np

    from spel_ray.functions.text import _BPE_RE, _STOPWORDS, _WORD_RE

    texts = ["the quick brown fox and the lazy dog for a walk in the park",
             "el perro y el gato en la casa de los abuelos por la tarde",
             "", "!!! ??? ###", "der Hund und die Katze ist von den",
             "这是一个中文句子，用来测试语言识别功能。",
             "le chat est sur la table et le chien dort",
             "under_scored tokens that's it… naïve café 42 C3PO"]
    out = (analyze_documents(rd.from_arrow(pa.table(
        {"doc_id": list(range(len(texts))), "text": texts})))
        .to_pandas().set_index("doc_id").sort_index())
    for i, t in enumerate(texts):
        assert out.loc[i, "pred_lang"] == detect_lang(t), t
        assert out.loc[i, "n_tokens_ws"] == len(t.split())
        assert out.loc[i, "n_tokens_bpe"] == len(_BPE_RE.findall(t))
        words = [w.lower() for w in _WORD_RE.findall(t)]
        en = _STOPWORDS["en"]
        want_stop = sum(w in en for w in words) / len(words) if words else 0.0
        assert abs(out.loc[i, "stop_ratio"] - want_stop) < 1e-12, t
        want_mwl = float(np.mean([len(w) for w in words])) if words else 0.0
        assert abs(out.loc[i, "mean_word_len"] - want_mwl) < 1e-12, t


def test_fingerprint_deterministic():
    a = rolling_fingerprint("some document body with enough length to window")
    b = rolling_fingerprint("some document body with enough length to window")
    c = rolling_fingerprint("a totally different body of text for the sketch")
    assert a == b
    assert a != c  # min-sketch: only guaranteed for substantially different text
    assert rolling_fingerprint("") == 0

    out = fingerprint_documents(_docs()).to_pandas()
    assert out["doc_fingerprint"].notna().all()


def test_bioes_from_flags():
    import numpy as np

    from spel_ray.functions.text import bioes_from_flags

    # {B,I,O,E,S} = {0,1,2,3,4}
    flags = np.array([0, 1, 1, 1, 0, 1, 0])
    assert bioes_from_flags(flags).tolist() == [2, 0, 1, 3, 2, 4, 2]
    # segment boundaries cut runs: the mention may not straddle docs
    seg = np.array([1, 1, 1, 2, 2, 2, 2])
    assert bioes_from_flags(flags, seg).tolist() == [2, 0, 3, 4, 2, 4, 2]
    assert bioes_from_flags(np.array([])).tolist() == []
    assert bioes_from_flags(np.array([1])).tolist() == [4]


def test_line_stats_repetition():
    from spel_ray.functions.text import line_stats

    ds = rd.from_arrow(pa.table({
        "doc_id": [1, 2, 3],
        "text": ["a\nb\na\na", "x\ny\nz", ""],
    }))
    out = line_stats(ds).to_pandas().set_index("doc_id").sort_index()
    assert out.loc[1, "n_lines"] == 4 and out.loc[1, "n_unique_lines"] == 2
    assert abs(out.loc[1, "dup_line_frac"] - 0.5) < 1e-12
    assert out.loc[2, "dup_line_frac"] == 0.0
    assert out.loc[3, "n_lines"] == 0 and out.loc[3, "dup_line_frac"] == 0.0


def test_dedup_lines_rewrite():
    from spel_ray.functions.text import dedup_lines

    ds = rd.from_arrow(pa.table({
        "doc_id": [1, 2, 3, 4],
        "text": ["a\nb\na\nc\nb", "x\ny", "", "only\nonly\nonly"],
    }))
    out = dedup_lines(ds).to_pandas().set_index("doc_id").sort_index()
    assert out.loc[1, "clean_text"] == "a\nb\nc"      # first-seen order
    assert out.loc[1, "n_lines"] == 5
    assert out.loc[1, "n_lines_removed"] == 2
    assert out.loc[2, "clean_text"] == "x\ny"
    assert out.loc[2, "n_lines_removed"] == 0
    assert out.loc[3, "clean_text"] == "" and out.loc[3, "n_lines"] == 0
    assert out.loc[4, "clean_text"] == "only"
    assert out.loc[4, "n_lines_removed"] == 2


def test_unigram_logppl_hand_computed():
    import math

    from spel_ray.functions.text import unigram_logppl

    ds = rd.from_arrow(pa.table({
        "doc_id": [1, 2, 3],
        # corpus: a×3, b×2, c×1 (total 6); vocab_size=2 keeps {a, b}
        "text": ["a a b", "a b c", ""],
    }))
    out = unigram_logppl(ds, vocab_size=2).to_pandas() \
        .set_index("doc_id").sort_index()
    # doc 1: all in-vocab, mean = (2*(-ln(3/6)) + (-ln(2/6))) / 3
    want1 = round((2 * -math.log(3 / 6) + -math.log(2 / 6)) / 3, 5)
    assert out.loc[1, "n_scored"] == 3 and out.loc[1, "n_oov"] == 0
    assert out.loc[1, "mean_neg_logp"] == want1
    # doc 2: c is OOV (pruned from the top-2 vocab)
    assert out.loc[2, "n_scored"] == 2 and out.loc[2, "n_oov"] == 1
    want2 = round((-math.log(3 / 6) + -math.log(2 / 6)) / 2, 5)
    assert out.loc[2, "mean_neg_logp"] == want2
    # doc 3: empty → zeroed, never NaN
    assert out.loc[3, "n_scored"] == 0 and out.loc[3, "n_oov"] == 0
    assert out.loc[3, "mean_neg_logp"] == 0.0


def test_tfidf_top_terms_hand_computed():
    import math

    import pyarrow as pa
    import ray.data as rd

    from spel_ray.functions.text import tfidf_top_terms

    ds = rd.from_arrow(pa.table({
        "doc_id": [1, 2, 3],
        "text": ["apple banana apple", "banana cherry", "cherry cherry date"],
    }))
    out = tfidf_top_terms(ds, k=2).to_pandas() \
        .sort_values(["doc_id", "term"]).reset_index(drop=True)
    # doc 1: apple tf=2/3 idf=ln(3/1); banana tf=1/3 idf=ln(3/2)
    d1 = out[out["doc_id"] == 1].set_index("term")["tfidf"]
    assert d1["apple"] == (2 / 3) * math.log(3 / 1)
    assert d1["banana"] == (1 / 3) * math.log(3 / 2)
    # doc 3: date (rare) outranks cherry despite tf 1/3 vs 2/3
    d3 = out[out["doc_id"] == 3].set_index("term")["tfidf"]
    assert d3["date"] == (1 / 3) * math.log(3 / 1)
    assert d3["cherry"] == (2 / 3) * math.log(3 / 2)
    assert len(out) == 6        # k=2 per doc


def test_tfidf_oracle_parity_edge_cases():
    """Run the generated oracle SQL through DuckDB on deliberately nasty
    inputs (trailing newline/tab, repeated terms, single-token doc,
    empty doc) and compare to the engine."""
    import duckdb
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    import __ray_entry__ as entrymod
    from spel_ray.functions.text import tfidf_top_terms

    docs = pa.table({
        "doc_id": [1, 2, 3, 4, 5],
        "text": ["apple\n", "apple pie\tpie", "pie", "",
                 "zeta zeta zeta apple"],
    })
    eng = tfidf_top_terms(rd.from_arrow(docs), k=3).to_pandas() \
        .sort_values(["doc_id", "term"]).reset_index(drop=True)
    con = duckdb.connect()
    con.register("documents", docs)
    ora = con.sql(entrymod.oracle_sql()["tfidf_top_terms"]).df() \
        .sort_values(["doc_id", "term"]).reset_index(drop=True)
    assert len(eng) == len(ora)
    for c in ["doc_id", "term", "tfidf"]:
        assert np.array_equal(eng[c].to_numpy(), ora[c].to_numpy()), c
    assert 4 not in set(eng["doc_id"])      # empty doc emits nothing


def test_gopher_rules_planted_cases():
    """Each planted document trips exactly its intended rule bit."""
    import pyarrow as pa
    import ray.data as rd

    from spel_ray.functions.text import gopher_rules

    clean = ("the quick brown fox jumps over the lazy dog and that is it "
             "for the day in a small town of note ") * 5   # >50 tokens
    short = "too short"                                     # bit 0
    symbols = clean[:400] + " " + "$%@!#^&*()" * 40         # bit 3
    dup_lines = "\n".join(["the same line of text that is here"] * 40)
    t = pa.table({
        "doc_id": pa.array([1, 2, 3, 4], pa.int64()),
        "text": [clean, short, symbols, dup_lines],
    })
    out = gopher_rules(rd.from_arrow(t)).to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)

    assert bool(out.loc[0, "keep"]) is True, out
    assert out.loc[1, "fail_mask"] & 1          # token-count rule
    assert not out.loc[1, "keep"]
    assert out.loc[2, "fail_mask"] & 8          # symbol-ratio rule
    assert out.loc[3, "fail_mask"] & 16         # dup-line rule
    assert (out["n_rules_failed"] ==
            out["fail_mask"].map(lambda m: bin(m).count("1"))).all()
