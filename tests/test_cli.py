from __future__ import annotations

import io
import os
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

from intgraphs import bimodular, cli
from intgraphs.cli import main
from intgraphs.execution import execute
from intgraphs.formats import render_graph
from test_kernel import diamond_chain

ROOT = Path(__file__).resolve().parent.parent
SAMPLES = ROOT / "samples"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExecute:
    def test_straight_line(self, capsys):
        code, out, _ = run(
            capsys, "execute", str(SAMPLES / "arrow_ab.graph"), str(SAMPLES / "arrow_bc.graph")
        )
        assert code == 0
        assert "edge e.f a c" in out

    def test_measure_flag(self, capsys):
        code, out, _ = run(
            capsys,
            "execute",
            str(SAMPLES / "two_cycle_left.graph"),
            str(SAMPLES / "two_cycle_right.graph"),
            "--measure",
            "directed",
        )
        assert code == 0
        assert "measure directed 1" in out

    def test_dot_flag(self, capsys):
        code, out, _ = run(
            capsys,
            "execute",
            str(SAMPLES / "arrow_ab.graph"),
            str(SAMPLES / "arrow_bc.graph"),
            "--dot",
        )
        assert code == 0
        assert out.startswith("digraph")

    def test_malformed_file_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.graph"
        bad.write_text("graph g\nedge e a b\n")
        code, _, err = run(capsys, "execute", str(bad), str(SAMPLES / "arrow_ab.graph"))
        assert code == 2
        assert "line 2" in err

    def test_shared_edge_ids_exit_2_naming_the_id(self, tmp_path, capsys):
        left = tmp_path / "left.graph"
        left.write_text("graph l\nvertex a\nvertex b\nedge e a b\n")
        right = tmp_path / "right.graph"
        right.write_text("graph r\nvertex c\nvertex d\nedge e c d\n")
        code, _, err = run(capsys, "execute", str(left), str(right))
        assert code == 2
        assert "disjoint edge ids" in err and "'e'" in err

    def test_infinite_exits_3_with_witness(self, tmp_path, capsys):
        left = tmp_path / "left.graph"
        left.write_text(
            "graph l\nvertex a\nvertex b\nvertex c\nedge e a b\nedge g c b\n"
        )
        right = tmp_path / "right.graph"
        right.write_text(
            "graph r\nvertex b\nvertex c\nvertex y\nedge f b c\nedge z b y\n"
        )
        code, _, err = run(capsys, "execute", str(left), str(right))
        assert code == 3
        assert "pumpable cycle" in err


class TestDot:
    def test_dot_of_a_sample(self, capsys):
        code, out, _ = run(capsys, "dot", str(SAMPLES / "arrow_ab.graph"))
        assert code == 0
        assert out == 'digraph "arrow_ab" {\n  "a";\n  "b";\n  "a" -> "b" [label="e"];\n}\n'

    @pytest.mark.parametrize(
        "command",
        [
            ["dot"],
            ["execute", str(SAMPLES / "arrow_ab.graph")],
            ["cob", "compose", str(SAMPLES / "cap.cob")],
        ],
        ids=["dot", "execute", "cob-compose"],
    )
    @pytest.mark.parametrize(
        "make, reason",
        [
            (lambda p: None, "[Errno 2] No such file or directory"),
            (lambda p: p.write_bytes(b"graph F\nvertex \xff\n"),
             "'utf-8' codec can't decode byte 0xff"),
            (lambda p: p.mkdir(), "[Errno 21] Is a directory"),
        ],
        ids=["missing", "not-utf-8", "directory"],
    )
    def test_an_unreadable_file_exits_2(self, tmp_path, capsys, command, make, reason):
        # an input error, not a traceback with the violation code 1
        bad = tmp_path / "bad"
        make(bad)
        code, out, err = run(capsys, *command, str(bad))
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: cannot read {bad}: {reason}")
        assert err.count("\n") == 1


class TestMeasure:
    def test_two_cycle(self, capsys):
        code, out, _ = run(
            capsys,
            "measure",
            str(SAMPLES / "two_cycle_left.graph"),
            str(SAMPLES / "two_cycle_right.graph"),
        )
        assert code == 0
        assert out.strip() == "1"

    def test_omega(self, tmp_path, capsys):
        right = tmp_path / "right.graph"
        right.write_text("graph r\nvertex a\nvertex b\nedge f1 b a\nedge f2 b a\n")
        code, out, _ = run(
            capsys, "measure", str(SAMPLES / "two_cycle_left.graph"), str(right)
        )
        assert code == 0
        assert out.strip() == "omega"


class TestRunAsModule:
    @pytest.mark.parametrize(
        "argv, code",
        [
            (["measure", "two_cycle_left.graph", "two_cycle_right.graph"], 0),
            (["dot"], 2),
            (["dot", "missing.graph"], 2),
        ],
    )
    def test_exit_code_is_mains_return_value(self, monkeypatch, capsys, argv, code):
        # what `python -m intgraphs.cli` runs, in this process; the loaded
        # module is set aside, as a fresh interpreter would not have it
        argv = [str(SAMPLES / a) if a.endswith(".graph") else a for a in argv]
        expected = run(capsys, *argv)
        assert expected[0] == code
        monkeypatch.setattr(sys, "argv", ["intgraphs", *argv])
        monkeypatch.delitem(sys.modules, "intgraphs.cli")
        with pytest.raises(SystemExit) as exit_:
            runpy.run_module("intgraphs.cli", run_name="__main__")
        captured = capsys.readouterr()
        assert (exit_.value.code, captured.out, captured.err) == expected


class _ClosedPipe(io.StringIO):
    """A stdout whose reader has left: every write raises."""

    def __init__(self, fd: int):
        super().__init__()
        self.fd = fd

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def fileno(self):
        return self.fd


class TestClosedPipe:
    def test_main_points_stdout_at_devnull_and_returns_141(self, monkeypatch, tmp_path):
        with open(tmp_path / "stdout", "w", encoding="utf-8") as sink:
            monkeypatch.setattr(sys, "stdout", _ClosedPipe(sink.fileno()))
            assert main(["dot", str(SAMPLES / "arrow_ab.graph")]) == cli.EXIT_PIPE
            # what the interpreter's flush at exit would write now goes nowhere
            os.write(sink.fileno(), b"lost")
        assert (tmp_path / "stdout").read_text(encoding="utf-8") == ""

    def test_a_reader_that_leaves_early_ends_the_run_with_141_and_no_traceback(self, tmp_path):
        # 2^12 result edges: far more text than a pipe holds (64 KiB on
        # Linux), so the command is still writing when the reader leaves
        f, g = diamond_chain(2, 11)
        files = [tmp_path / "f.graph", tmp_path / "g.graph"]
        for path, graph in zip(files, (f, g)):
            path.write_text(render_graph(path.stem, graph), encoding="utf-8")
        assert len(render_graph("result", execute(f, g))) > 4 * 65536
        env = dict(os.environ)
        # buffered, as by default: an unbuffered text stdout drops the rest
        # of a write that the pipe cut short, and the run ends with 0
        env.pop("PYTHONUNBUFFERED", None)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
        child = subprocess.Popen(
            [sys.executable, "-m", "intgraphs.cli", "execute", *map(str, files)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        )
        try:
            assert child.stdout.readline() == b"graph result\n"
            child.stdout.close()
            _, err = child.communicate(timeout=60)
        finally:
            child.kill()
            child.wait()
        assert b"Traceback" not in err
        assert (child.returncode, err) == (cli.EXIT_PIPE, b"")
        assert cli.EXIT_PIPE == 141


class TestCob:
    def test_compose_cap_cup(self, capsys):
        code, out, _ = run(
            capsys, "cob", "compose", str(SAMPLES / "cap.cob"), str(SAMPLES / "cup.cob")
        )
        assert code == 0
        assert "circles 1" in out

    def test_identity_round_trips(self, capsys):
        code, out, _ = run(capsys, "cob", "identity", "a", "b")
        assert code == 0
        assert "pair L:a R:a" in out
        assert "pair L:b R:b" in out
        assert "circles 0" in out

    def test_functor_single_file(self, capsys):
        code, out, _ = run(
            capsys, "cob", "functor", str(SAMPLES / "three_strands_two_circles.cob")
        )
        assert code == 0
        assert "wager 2" in out
        # three symmetric pairs = six directed edges
        assert out.count("edge ") == 6

    def test_functor_pair_reports(self, capsys):
        code, out, _ = run(
            capsys, "cob", "functor", str(SAMPLES / "cap.cob"), str(SAMPLES / "cup.cob")
        )
        assert code == 0
        assert "functoriality: PASS" in out

    def test_non_ascii_circle_count_exits_2_naming_the_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.cob"
        bad.write_text("cob c\nleft b1 b2\nright x\ncircles ²\n")
        code, _, err = run(capsys, "cob", "compose", str(SAMPLES / "cap.cob"), str(bad))
        assert code == 2
        assert "line 4" in err

    def test_interface_mismatch_exits_2(self, capsys):
        code, _, err = run(
            capsys, "cob", "compose", str(SAMPLES / "cap.cob"), str(SAMPLES / "cap.cob")
        )
        assert code == 2
        assert "error" in err


class TestCheck:
    def test_assoc_small(self, capsys):
        code, out, _ = run(
            capsys, "check", "assoc", "--trials", "25", "--seed", "1"
        )
        assert code == 0
        assert "verdict=PASS" in out

    def test_determinism(self, capsys):
        code1, out1, _ = run(capsys, "check", "trefoil", "--trials", "20", "--seed", "9")
        code2, out2, _ = run(capsys, "check", "trefoil", "--trials", "20", "--seed", "9")
        assert code1 == code2 == 0
        assert out1 == out2

    def test_faithful_bound(self, capsys):
        code, out, _ = run(capsys, "check", "faithful", "--exhaustive-bound", "6")
        assert code == 0
        assert "6: 45" in out

    def test_infinite_instance_counts_as_skip(self, capsys):
        # seed 5's first triple has an infinite path set
        code, out, _ = run(capsys, "check", "assoc", "--trials", "1", "--seed", "5")
        assert code == 0
        assert "skipped=1" in out

    def test_bad_property_exits_2(self, capsys):
        code, _, _ = run(capsys, "check", "no-such-property")
        assert code == 2

    def test_exhaustive_bound_zero_is_a_real_bound(self, capsys):
        code, out, _ = run(capsys, "check", "faithful", "--exhaustive-bound", "0")
        assert code == 0
        assert "trials=1 " in out

    def test_zero_trials_run_nothing(self, capsys):
        code, out, _ = run(capsys, "check", "assoc", "--trials", "0")
        assert code == 0
        assert "trials=0 passed=0 failed=0 skipped=0" in out

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--trials", "-5"),
            ("--exhaustive-bound", "-1"),
            ("--max-vertices", "0"),
            ("--max-edges", "0"),
            ("--trials", "many"),
        ],
    )
    def test_bad_counts_and_sizes_exit_2(self, capsys, flag, value):
        code, out, err = run(capsys, "check", "assoc", flag, value)
        assert code == 2
        assert out == ""
        assert flag in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "prop, campaign, keyword",
        [
            ("cob0-laws", "campaign_cob0_laws", "bound"),
            ("functor", "campaign_functor", "bound"),
            ("faithful", "campaign_faithful", "bound"),
        ],
    )
    def test_exhaustive_bound_passed_only_when_given(
        self, monkeypatch, capsys, prop, campaign, keyword
    ):
        calls = []
        real = getattr(cli, campaign)

        def spy(**kwargs):
            calls.append(kwargs)
            return real(**{keyword: 0})

        monkeypatch.setattr(cli, campaign, spy)
        assert run(capsys, "check", prop)[0] == 0
        assert run(capsys, "check", prop, "--exhaustive-bound", "0")[0] == 0
        assert calls == [{}, {keyword: 0}]

    @pytest.mark.parametrize(
        "prop, campaign",
        [
            ("assoc", "campaign_associativity"),
            ("trefoil", "campaign_trefoil"),
            ("bimod-degeneracy", "campaign_bimod_degeneracy"),
            ("bimod-well-defined", "campaign_bimod_well_defined"),
        ],
    )
    def test_random_campaign_gets_only_typed_flags(self, monkeypatch, capsys, prop, campaign):
        calls = []
        real = getattr(cli, campaign)

        def spy(**kwargs):
            calls.append(kwargs)
            return real(trials=0)

        monkeypatch.setattr(cli, campaign, spy)
        assert run(capsys, "check", prop)[0] == 0
        typed = ("--seed", "7", "--max-vertices", "8", "--max-edges", "3", "--exhaustive-bound", "1")
        assert run(capsys, "check", prop, *typed)[0] == 0
        # the bimodular campaigns cap the typed sizes; none reads the bound
        vertices = 5 if prop.startswith("bimod") else 8
        assert calls == [{}, {"seed": 7, "max_vertices": vertices, "max_edges": 3}]

    def test_bimodular_cap_exits_2(self, monkeypatch, capsys):
        monkeypatch.setattr(bimodular, "_ORBIT_CAP", 1)
        code, out, err = run(capsys, "check", "bimod-well-defined", "--trials", "20")
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "exceed" in err
