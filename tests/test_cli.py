import io
import json
import os
import subprocess
import sys
from pathlib import Path

from lspgen.cli import main
from lspgen.complete import is_chiral
from lspgen.generate import GenerationTask, generate
from lspgen.maps import canonical_code, read_planar_code


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out


SRC = str(Path(__file__).resolve().parents[1] / "src")


def run_cli_bytes(args):
    # the child imports lspgen from this checkout, installed or not
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ,
               PYTHONPATH=SRC if not path else SRC + os.pathsep + path)
    proc = subprocess.run([sys.executable, "-m", "lspgen.cli"] + args,
                          capture_output=True, env=env)
    return proc.returncode, proc.stdout


def test_count_lines(capsys):
    code, out = run_cli(["generate", "--rate", "5", "-k", "3", "--count"],
                        capsys)
    assert code == 0
    assert out.strip() == "5 3 4"


def test_count_range(capsys):
    code, out = run_cli(["generate", "--rate", "1-4", "--count"], capsys)
    assert code == 0
    assert [ln.split()[2] for ln in out.strip().splitlines()] \
        == ["2", "2", "4", "6"]


def test_predecoration_count(capsys):
    code, out = run_cli(["generate", "--rate", "4", "--count",
                         "--predecorations"], capsys)
    assert code == 0
    assert out.strip() == "4 1 2"


def test_deco_emission_matches_count(capsys):
    code, out = run_cli(["generate", "--rate", "3", "--format", "deco"],
                        capsys)
    assert code == 0
    records = [r for r in out.split("deco 1") if r.strip()]
    assert len(records) == 4


def test_sorted_output_is_stable(capsys):
    outs = []
    for _ in range(2):
        code, out = run_cli(["generate", "--rate", "1-4", "--sorted",
                             "--format", "deco"], capsys)
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]


def test_apply_ambo_cube():
    code, data = run_cli_bytes(["apply", "--op", "ambo", "--seed", "cube"])
    assert code == 0
    g = read_planar_code(data)[0]
    assert (g.n, g.ne, len(g.faces)) == (12, 24, 14)


def test_apply_identity_round_trip(tmp_path):
    code, data = run_cli_bytes(["apply", "--op", "identity", "--seed", "cube"])
    assert code == 0
    from lspgen.catalog import seed
    assert canonical_code(read_planar_code(data)[0]) \
        == canonical_code(seed("cube"))


def test_apply_file_inputs(tmp_path, capsys):
    code, data = run_cli_bytes(["apply", "--op", "identity", "--seed", "cube"])
    pc = tmp_path / "cube.pc"
    pc.write_bytes(data)
    deco = tmp_path / "x.deco"
    from lspgen.catalog import lookup
    from lspgen.decorations import write_deco
    deco.write_text(write_deco(lookup("ambo")), encoding="ascii")
    code, data = run_cli_bytes(["apply", "--op-file", str(deco),
                                "--seed-file", str(pc)])
    assert code == 0
    g = read_planar_code(data)[0]
    assert g.ne == 2 * 12


def test_apply_malformed_seed_file(tmp_path, capsys):
    pc = tmp_path / "cube.pc"
    # the cube with vertex 6's rotation mutated into a one-sided adjacency
    pc.write_bytes(bytes.fromhex(
        "080204050001060300020704000103080001080600020501000306080004070500"))
    assert main(["apply", "--op", "ambo", "--seed-file", str(pc)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_verify_ok(capsys):
    code, out = run_cli(["verify", "--rate", "4", "-k", "1"], capsys)
    assert code == 0
    assert "ok" in out


def test_verify_rate_guard(capsys):
    assert main(["verify", "--rate", "9"]) == 2


def test_usage_errors(capsys):
    assert main(["generate"]) == 2
    assert main(["apply", "--op", "nonsense", "--seed", "cube"]) == 2
    assert main(["frobnicate"]) == 2
    assert main(["generate", "--rate", "3", "--threads", "2"]) == 2


def test_sidecar_needs_pc_records(tmp_path, capsys):
    side = tmp_path / "side"
    for extra in ([], ["--count"], ["--predecorations"],
                  ["--format", "pc", "--count"]):
        assert main(["generate", "--rate", "3", "--sidecar", str(side),
                     *extra]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --sidecar") and err.count("\n") == 1
    assert not side.exists()


def test_generated_pc_round_trips():
    code, data = run_cli_bytes(["generate", "--rate", "3", "--format", "pc",
                                "--sorted"])
    assert code == 0
    graphs = read_planar_code(data)
    assert len(graphs) == 4
    again = read_planar_code(data)
    assert [canonical_code(g) for g in graphs] \
        == [canonical_code(g) for g in again]


def test_k2_rate10_count_line(capsys):
    code, out = run_cli(["generate", "--rate", "10", "-k", "2", "--count"],
                        capsys)
    assert code == 0
    assert out.strip() == "10 2 168"


def test_unsorted_records_are_written_as_they_arrive(tmp_path, monkeypatch):
    import lspgen.cli as cli
    raw = io.BytesIO()
    monkeypatch.setattr(sys, "stdout",
                        io.TextIOWrapper(raw, encoding="ascii",
                                         write_through=True))
    sizes = []     # output size when each decoration arrives
    real = cli.run_pipeline

    def pipeline(*args, on_decoration):
        def emit(d):
            sizes.append(len(raw.getvalue()))
            on_decoration(d)
        return real(*args, on_decoration=emit)

    monkeypatch.setattr(cli, "run_pipeline", pipeline)
    side = ["--sidecar", str(tmp_path / "side")]
    for fmt, extra in (("deco", []), ("pc", side)):
        sizes.clear()
        assert main(["generate", "--rate", "1-4", "--format", fmt,
                     *extra]) == 0
        # every record is out before the next one arrives
        assert len(sizes) == 14 and sizes == sorted(set(sizes))


def _embeddings(rmax):
    """Skeletons up to rmax, a chiral one counted with its mirror image."""
    found = []
    generate(GenerationTask(1, rmax, 1),
             visitor=lambda p: found.append(1 + is_chiral(p)))
    return sum(found)


def test_stats_line_on_stderr_leaves_stdout_alone(capsys):
    funnel = vars(generate(GenerationTask(1, 8, 1)))
    assert funnel["pruned"] > 0
    embeddings = {8: _embeddings(8), 6: _embeddings(6)}
    for argv in (["generate", "--rate", "1-8", "--count"],
                 ["generate", "--rate", "1-8", "--predecorations",
                  "--count"],
                 ["generate", "--rate", "1-6", "--format", "deco"]):
        assert main(argv) == 0
        plain = capsys.readouterr()
        assert main(argv + ["--stats"]) == 0
        traced = capsys.readouterr()
        assert traced.out == plain.out and plain.err == ""
        (line,) = traced.err.splitlines()
        result = json.loads(line)
        rmax = int(argv[2][-1])
        assert result["task"] == {"rate_min": 1, "rate_max": rmax, "k": 1}
        if "--count" in argv:
            column = ("predecorations" if "--predecorations" in argv
                      else "decorations")
            counts = [ln.split()[2] for ln in plain.out.splitlines()]
            assert [str(result[column][str(r)])
                    for r in range(1, rmax + 1)] == counts
        else:
            records = sum(ln.startswith("deco ")
                          for ln in plain.out.splitlines())
            assert sum(result["decorations"].values()) == records > 0
        if rmax == 8:
            assert result["stats"] == funnel
        completion = result["completion"]
        assert (completion["searches"] + completion["mirrored"]
                == embeddings[rmax])
        assert completion["emitted"] == sum(result["decorations"].values())
        assert completion["built"] <= completion["covers"]


def test_stats_funnel_of_the_k2_count(capsys):
    # one cover search per skeleton, the mirror embedding of each of the
    # 84 chiral ones completed from it; 400 of the mirrors' 404 verdicts
    # come from the skeleton side
    assert main(["generate", "--rate", "1-14", "-k", "2", "--count",
                 "--stats"]) == 0
    result = json.loads(capsys.readouterr().err)
    assert result["completion"] == {
        "searches": 165, "mirrored": 84, "covers": 1214, "built": 1209,
        "emitted": 3130, "classified": 1180}
