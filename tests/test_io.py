import numpy as np
import pytest

from netstats.graph import Format, WeightType
from netstats.io import (
    DatasetError,
    Finding,
    Header,
    parse_meta,
    parse_out,
    validate,
    write_meta,
    write_out,
)

from gen import ALL_COMBOS, graph_from_pairs, random_graph


def test_parse_minimal_undirected():
    g, header = parse_out(b"% sym unweighted\n1\t2\n")
    assert header.fmt is Format.UNDIRECTED
    assert header.weights is WeightType.UNWEIGHTED
    assert g.m == 1 and g.n == 2
    assert g.weight is None


def test_parse_counts_line():
    g, header = parse_out(b"% sym unweighted\n% 1 5 5\n1 2\n")
    assert header.declared_m == 1
    assert g.n == 5  # declared node count wins over observed


def test_parse_zero_posweight_needs_tag():
    data = b"% bip posweighted\n1 2 0\n"
    with pytest.raises(DatasetError) as exc:
        parse_out(data)
    assert exc.value.line == 2
    g, _ = parse_out(data, tags=frozenset({"#zeroweight"}))
    assert g.pair_weight(1, 3) == 0.0


def test_parse_timestamp():
    g, _ = parse_out(b"% sym unweighted\n1 2 1 1262304000\n")
    # oracle: 2010-01-01T00:00:00Z in Unix time
    import datetime

    expected = datetime.datetime(2010, 1, 1, tzinfo=datetime.timezone.utc).timestamp()
    assert g.timestamp[0] == expected


def test_parse_errors_carry_line_numbers():
    cases = [
        (b"% sym unweighted\n1\n", 2),  # bad field count
        (b"% sym unweighted\n1 x\n", 2),  # non-numeric
        (b"% sym unweighted\n1 2\n1 2\n", 3),  # duplicate pair
        (b"% sym unweighted\n2 1\n1 2\n", 3),  # duplicate, reversed orientation
        (b"% sym unweighted\n1 1\n", 2),  # loop without #loop
        (b"% asym dynamic\n1 2 3\n", 2),  # dynamic needs +/-1
        (b"% sym posweighted\n1 2 -1\n", 2),  # negative positive weight
    ]
    for data, line in cases:
        with pytest.raises(DatasetError) as exc:
            parse_out(data)
        assert exc.value.line == line, data


def test_declared_count_mismatch():
    with pytest.raises(DatasetError):
        parse_out(b"% sym unweighted\n% 2\n1 2\n")


def test_id_beyond_declared_count_is_error():
    with pytest.raises(DatasetError):
        parse_out(b"% sym unweighted\n% 1 2 2\n1 3\n")


def test_aggregated_multiplicity():
    g, _ = parse_out(b"% sym positive\n1 2 3\n")
    assert g.m == 3
    assert g.pair_weight(1, 2) == 3.0


def test_empty_graph_header_only():
    g, header = parse_out(b"% sym unweighted\n% 0 4 4\n")
    assert g.n == 4 and g.m == 0
    assert write_out(g, header) == b"% sym unweighted\n% 0 4 4\n"


def test_scientific_notation_read_not_written():
    g, header = parse_out(b"% sym posweighted\n1 2 1e2\n")
    assert g.weight[0] == 100.0
    assert b"1e" not in write_out(g, header).lower()


def test_crlf_accepted():
    g, _ = parse_out(b"% sym unweighted\r\n1 2\r\n")
    assert g.m == 1


def test_roundtrip_every_combo():
    rng = np.random.default_rng(23)
    for fmt, weights in ALL_COMBOS:
        for _ in range(3):
            g = random_graph(rng, fmt, weights)
            blob = write_out(g)
            g2, header2 = parse_out(blob, tags=g.tags)
            assert g2 == g, (fmt, weights)
            blob2 = write_out(g2, header2)
            g3, header3 = parse_out(blob2, tags=g.tags)
            assert g3 == g2 and header3 == header2


def test_extra_comments_preserved():
    data = b"% sym unweighted\n% 1 2 2\n% extracted 2014\n1\t2\n"
    g, header = parse_out(data)
    assert header.extra_comments == ("% extracted 2014",)
    assert write_out(g, header) == data


def test_parse_meta():
    meta = parse_meta(b"code: EL\nname: Elections\ncategory: Social\n")
    assert meta.get("code") == "EL"
    assert meta.get("missing") is None


def test_parse_meta_tags_and_urls():
    meta = parse_meta(b"tags: #loop #incomplete\nurl: a,b\n")
    assert meta.tags == {"#loop", "#incomplete"}
    assert meta.urls == ("a", "b")


def test_parse_meta_error_line():
    with pytest.raises(DatasetError) as exc:
        parse_meta(b"code: EL\nbroken line\n")
    assert exc.value.line == 2


def test_meta_roundtrip_preserves_unknown_keys():
    data = b"code: EL\nn3-prefix-m:   <http://x>  \nweird-key:value\n"
    meta = parse_meta(data)
    assert write_meta(meta) == data
    assert meta.get("weird-key") == "value"


def _meta(text: bytes):
    return parse_meta(text)


def test_validate_compliant():
    g, header = parse_out(b"% sym unweighted\n1 2\n2 3\n1 3\n")
    meta = _meta(b"name: T\ncode: TT\ncategory: Social\n")
    findings = validate(g, header, meta)
    assert [f for f in findings if f.severity == "error"] == []


def test_validate_directed_reciprocity_rule():
    g, header = parse_out(b"% asym unweighted\n1 2\n2 3\n3 1\n")
    errors = [f for f in validate(g, header) if f.severity == "error"]
    assert any("reciprocal" in f.message for f in errors)
    tagged, header2 = parse_out(b"% asym unweighted\n1 2\n2 3\n3 1\n",
                                tags=frozenset({"#acyclic"}))
    errors2 = [f for f in validate(tagged, header2) if f.severity == "error"]
    assert not any("reciprocal" in f.message for f in errors2)


def test_validate_kcore_implies_incomplete():
    g, header = parse_out(b"% sym unweighted\n1 2\n", tags=frozenset({"#kcore"}))
    errors = [f for f in validate(g, header) if f.severity == "error"]
    assert any("#kcore" in f.message for f in errors)


def test_validate_bipartite_star_warning():
    g, header = parse_out(b"% bip unweighted\n1 1\n2 1\n3 1\n")
    warnings = [f for f in validate(g, header) if f.severity == "warning"]
    assert any("star" in f.message or "forest" in f.message for f in warnings)


def test_validate_forest_warning_counts_each_undirected_edge_once():
    # reference: the distinct edges of the simple loopless graph, which the
    # pattern holds twice each; a reciprocated arc pair is one edge
    rng = np.random.default_rng(31)
    forests = {True: 0, False: 0}
    for fmt, weights in ALL_COMBOS:
        for sizes in [(12, 14)] * 8 + [(20, 8)] * 8:
            g = random_graph(rng, fmt, weights, *sizes)
            if g.n == 0 or len(g.src) == 0:
                continue
            forest = g.pattern.nnz // 2 == g.n - (g.component_labels.max() + 1)
            warned = any("forest" in f.message for f in validate(g, Header(fmt, weights)))
            assert warned == forest, (fmt, weights)
            forests[forest] += 1
    assert min(forests.values()) >= 50, forests
    # a reciprocated arc pair closes no cycle; two arcs of a log's pair may
    # be gone from its latest state
    arcs = graph_from_pairs([(1, 2), (2, 1), (2, 3)], 3, fmt=Format.DIRECTED)
    log = graph_from_pairs([(1, 2), (2, 3), (3, 1), (3, 1)], 3, fmt=Format.DIRECTED,
                           weights=WeightType.DYNAMIC, w=[1, 1, 1, -1])
    for g in (arcs, log):
        assert any("forest" in f.message for f in validate(g, Header(g.fmt, g.weights)))


def test_finding_row_format():
    assert Finding("error", "boom", 3).as_row() == "error\t3\tboom"


def test_invalid_utf8_is_a_dataset_error_on_its_line():
    with pytest.raises(DatasetError) as exc:
        parse_out(b"% sym unweighted\n1 2\n2 3 \xc3\n")
    assert exc.value.line == 3 and "UTF-8" in exc.value.message
    with pytest.raises(DatasetError) as exc:
        parse_meta(b"name: x\n\xffcode: XX\n")
    assert exc.value.line == 2


@pytest.mark.parametrize("token", [b"9223372036854775808", b"-99999999999999999999"])
def test_ids_beyond_int64_are_dataset_errors(token):
    with pytest.raises(DatasetError) as exc:
        parse_out(b"% asym unweighted\n1 2\n" + token + b" 1\n")
    assert exc.value.line == 3
    with pytest.raises(DatasetError) as exc:
        parse_out(b"% asym unweighted\n1 " + token + b"\n")
    assert exc.value.line == 2


@pytest.mark.parametrize("text, line", [
    (b"% asym positive\n% 2 4000000000 4000000000\n3999999999 2\n2 3999999999\n", 2),
    (b"% bip unweighted\n% 1 2000000000 2000000000\n1 1\n", 2),
    (b"% asym positive\n1 2\n2 3999999999\n", 3),
    (b"% sym unweighted\n3037000499 1\n", 2),
    (b"% bip unweighted\n2000000000 1\n1 1\n1 2000000000\n", 4),
], ids=["declared", "declared-bipartite", "id", "id-at-limit", "ids-bipartite"])
def test_node_counts_beyond_pair_key_limit(text, line):
    with pytest.raises(DatasetError) as exc:
        parse_out(text)
    assert exc.value.line == line


def test_pair_keys_at_the_node_limit():
    from netstats.graph import MAX_NODES, Graph, GraphError

    with pytest.raises(GraphError, match="exceed the limit"):
        Graph(fmt=Format.BIPARTITE, weights=WeightType.UNWEIGHTED, n1=MAX_NODES,
              n2=1, src=np.array([1]), dst=np.array([1]))

    top = MAX_NODES
    g, _ = parse_out(f"% asym positive\n{top} 2\n2 {top}\n{top} {top - 1}\n".encode())
    assert g.n == top
    a, b = g.pairs.endpoints()
    assert sorted(zip(a.tolist(), b.tolist())) == [(2, top), (top, 2), (top, top - 1)]
    assert g.pairs.reciprocated().tolist() == [True, True, False]
