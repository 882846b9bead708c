from lspgen.decorations import decoration_identity
from lspgen.pipeline import run_pipeline


def test_counts_match_published_small():
    res = run_pipeline(1, 8, 1)
    assert [res.decorations[r] for r in range(1, 9)] \
        == [2, 2, 4, 6, 6, 20, 28, 58]
    assert [res.predecorations[r] for r in range(1, 9)] \
        == [1, 1, 1, 2, 2, 4, 2, 8]


def test_k2_rate_10():
    res = run_pipeline(10, 10, 2)
    assert res.decorations[10] == 168


def test_k3_filter():
    res = run_pipeline(5, 5, 3)
    assert res.decorations[5] == 4


def test_emission_matches_count():
    sink = []
    res = run_pipeline(1, 6, 1, on_decoration=sink.append)
    assert len(sink) == sum(res.decorations.values())
    codes = {decoration_identity(d) for d in sink}
    assert len(codes) == len(sink)
