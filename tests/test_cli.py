"""Command-line behavior: outputs, exit codes, determinism, and stream
separation (results on stdout, diagnostics on stderr)."""

import io
import json
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest

from smc.cli import main
from smc.csp import evaluate, parse_csp
from smc.domset import LabeledGraph, parse_labeled_graph
from smc.graph import Graph, format_graph, parse_graph
from smc.oracles import brute_domset, brute_max2csp
from smc.separator import Separation, verify_separation

K4 = "graph 4 6\n0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n"
SC_SAMPLE = "setcover 3 2\nset 0 0 1\nset 1 2\n"


def run(argv, stdin=""):
    out, err = io.StringIO(), io.StringIO()
    old_stdin = sys.stdin
    sys.stdin = io.StringIO(stdin)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
    finally:
        sys.stdin = old_stdin
    return code, out.getvalue(), err.getvalue()


class TestSolve:
    def test_maxcut_k4(self):
        code, out, err = run(["maxcut"], K4)
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "score 4"
        colors = list(map(int, lines[1].split()[1:]))
        g = parse_graph(K4)
        cut = sum(1 for u, v in g.edges() if colors[u] != colors[v])
        assert cut == 4

    def test_solve_csp_matches_oracle(self):
        code, gen_out, _ = run(["gen", "csp", "--n", "6", "--m", "9", "--r", "3",
                                "--seed", "5"])
        assert code == 0
        inst = parse_csp(gen_out)
        code, out, _ = run(["solve-csp"], gen_out)
        assert code == 0
        score = int(out.splitlines()[0].split()[1])
        assert score == brute_max2csp(inst).score
        phi = dict(enumerate(map(int, out.splitlines()[1].split()[1:])))
        assert evaluate(inst, phi) == score

    def test_local_policy_same_score(self):
        _, gen_out, _ = run(["gen", "csp", "--n", "7", "--m", "10", "--seed", "2"])
        _, sep_out, _ = run(["solve-csp"], gen_out)
        _, loc_out, _ = run(["solve-csp", "--policy", "local"], gen_out)
        assert sep_out.splitlines()[0] == loc_out.splitlines()[0]

    def test_max2sat(self):
        cnf = "p cnf 3 4\n1 2 0\n-1 3 0\n-2 -3 0\n1 0\n"
        code, out, _ = run(["max2sat"], cnf)
        assert code == 0
        assert out.splitlines()[0] == "score 4"

    def test_json_payload(self):
        code, out, _ = run(["maxcut", "--json"], K4)
        assert code == 0
        payload = json.loads(out)
        assert payload["score"] == 4
        assert len(payload["assignment"]) == 4
        assert payload["stats"]["leaves"] >= 1

    @pytest.mark.parametrize("g", [Graph.path(2000), Graph.cycle(2000)],
                             ids=["path", "cycle"])
    def test_maxcut_long_chain(self, g):
        # Reduces without branching, one reduction per vertex; runs at the
        # interpreter's default recursion limit.
        code, out, err = run(["maxcut", "--json"], format_graph(g))
        assert code == 0, err
        payload = json.loads(out)
        want = g.n - 1 if g.m < g.n else g.n - g.n % 2
        assert payload["score"] == want
        colors = payload["assignment"]
        assert sum(1 for u, v in g.edges() if colors[u] != colors[v]) == want


class TestCounting:
    def test_count_ds_both_engines_match_oracle(self):
        _, text, _ = run(["gen", "g3", "--n", "8"])
        expected = brute_domset(LabeledGraph.all_u(parse_graph(text))).to_list(8)
        for extra in ([], ["--subcubic"], ["--subcubic", "--policy", "local"]):
            code, out, _ = run(["count-ds", *extra], text)
            assert code == 0
            assert list(map(int, out.split()[1:])) == expected

    def test_count_ds_labels_need_subcubic(self):
        text = "graph 3 2\n0 1\n1 2\nlabel 0 N\n"
        code, _, err = run(["count-ds"], text)
        assert code == 2 and "subcubic" in err
        code, out, _ = run(["count-ds", "--subcubic"], text)
        assert code == 0
        expected = brute_domset(parse_labeled_graph(text)).to_list(3)
        assert list(map(int, out.split()[1:])) == expected

    def test_count_ds_general_degree(self):
        g = Graph.complete(5)
        code, out, _ = run(["count-ds"], format_graph(g))
        assert code == 0
        expected = brute_domset(LabeledGraph.all_u(g)).to_list(5)
        assert list(map(int, out.split()[1:])) == expected

    def test_count_sc(self):
        code, out, _ = run(["count-sc"], SC_SAMPLE)
        assert code == 0
        assert out == "counts 0 0 1\n"

    def test_count_sc_one_large_set(self):
        # 1501 annotations and no branch: the engine loops, it does not
        # recurse once per annotation
        assert sys.getrecursionlimit() <= 1000
        text = "setcover 1500 1\nset 0 " + " ".join(map(str, range(1500))) + "\n"
        code, out, _ = run(["count-sc"], text)
        assert code == 0 and out == "counts 0 1\n"

    @pytest.mark.parametrize("argv,text", [
        (["maxcut"], K4), (["count-ds"], K4), (["count-ds", "--subcubic"], K4),
        (["count-sc"], SC_SAMPLE)], ids=["maxcut", "count-ds", "count-ds-subcubic", "count-sc"])
    def test_json_stats_share_one_schema(self, argv, text):
        code, out, _ = run([*argv, "--json"], text)
        assert code == 0
        assert sorted(json.loads(out)["stats"]) == sorted(
            ["branchings", "stalls", "leaves", "dp_calls", "annotations", "splits",
             "max_depth", "separator_recomputes"])

    def test_count_sc_audit_clean(self):
        _, text, _ = run(["gen", "g3", "--n", "12"])
        code, out, err = run(["count-ds", "--audit-measure", "--stats"], text)
        assert code == 0
        assert "stat,audit_violations,0" in err

    def test_count_sc_audit_past_float_range(self):
        # μ₃ of this chain's incidence graph exceeds 1024, where 2^μ is no float
        text = format_graph(Graph.path(150))
        code, out, err = run(["count-ds", "--audit-measure"], text)
        assert code == 0 and out == run(["count-ds"], text)[1]
        assert "stat,audit_violations,0" in err

    def test_oracle_subcommands_agree(self):
        _, text, _ = run(["gen", "g3", "--n", "8"])
        _, fast, _ = run(["count-ds"], text)
        _, ref, _ = run(["oracle", "ds"], text)
        assert fast == ref
        _, fast, _ = run(["count-sc"], SC_SAMPLE)
        _, ref, _ = run(["oracle", "sc"], SC_SAMPLE)
        assert fast == ref


STAR4 = "graph 5 4\n0 1\n0 2\n0 3\n0 4\n"
# triangles 0-1-2, 3-4-5, 6-7-8 tied at 0, which also holds the leaf 9:
# degree 5; 10 and 11 are isolated
TRIANGLES = ("graph 12 12\n0 1\n0 2\n1 2\n3 4\n3 5\n4 5\n6 7\n6 8\n7 8\n"
             "0 3\n0 6\n0 9\n")


class TestSubcubicInput:
    @pytest.mark.parametrize("text", [STAR4, TRIANGLES], ids=["star", "triangles"])
    def test_degree_above_three_is_input_error(self, text):
        code, out, err = run(["count-ds", "--subcubic"], text)
        assert code == 2 and out == "" and "max degree <= 3" in err
        code, out, _ = run(["count-ds"], text)
        assert code == 0
        assert out == run(["oracle", "ds"], text)[1]

    def test_degree3_labeled_n_is_input_error(self):
        for extra in ([], ["--subcubic"]):
            code, out, err = run(["count-ds", *extra], K4 + "label 0 N\n")
            assert code == 2 and out == "" and "degree-3 vertex 0 labeled N" in err

    def test_label_check_runs_under_python_o(self, tmp_path):
        path = tmp_path / "k4.graph"
        path.write_text(K4 + "label 0 C\n")
        proc = subprocess.run(
            [sys.executable, "-O", "-m", "smc.cli", "count-ds", "--subcubic",
             "--input", str(path)],
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 2 and proc.stdout == ""
        assert "degree-3 vertex 0 labeled C" in proc.stderr


class TestSeparate:
    @pytest.mark.parametrize("gen_args", [["g3", "--n", "16"],
                                          ["cubic", "--n", "14", "--seed", "3"]])
    def test_output_is_valid_separation(self, gen_args):
        _, text, _ = run(["gen", *gen_args])
        code, out, _ = run(["separate"], text)
        assert code == 0
        sides = {}
        for line in out.splitlines():
            name, *ids = line.split()
            sides[name] = set(map(int, ids))
        sep = Separation(sides["left"], sides["sep"], sides["right"])
        assert verify_separation(parse_graph(text), sep)

    def test_degree_above_six_is_an_input_error(self):
        code, out, err = run(["separate"], format_graph(Graph.complete(8)))
        assert code == 2 and out == "" and "max degree <= 6" in err

    def test_degree_four_uses_bag_sweep(self):
        _, text, _ = run(["gen", "g4", "--n3", "8", "--n4", "4"])
        code, out, _ = run(["separate"], text)
        assert code == 0
        sides = {ln.split()[0]: set(map(int, ln.split()[1:])) for ln in out.splitlines()}
        sep = Separation(sides["left"], sides["sep"], sides["right"])
        assert verify_separation(parse_graph(text), sep)
        assert abs(len(sides["left"]) - len(sides["right"])) <= 1


class TestGen:
    def test_families_roundtrip(self):
        for args, n in ((["g3", "--n", "12"], 12), (["g4", "--n", "16"], 15),
                        (["g5", "--n", "40"], 39), (["cubic", "--n", "10"], 10)):
            code, out, _ = run(["gen", *args])
            assert code == 0
            assert parse_graph(out).n == n

    def test_csp_roundtrip(self):
        code, out, _ = run(["gen", "csp", "--n", "5", "--m", "6", "--r", "2",
                            "--seed", "1"])
        assert code == 0
        inst = parse_csp(out)
        inst.check()
        assert inst.n == 5 and inst.graph.m == 6

    def test_missing_parameter(self):
        code, _, err = run(["gen", "g3"])
        assert code == 2 and "--n" in err

    def test_bad_family_parameter(self):
        code, _, err = run(["gen", "g3", "--n", "10"])
        assert code == 2


class TestTraceLb:
    def test_g3_example_line(self):
        code, out, _ = run(["trace-lb", "--family", "g3", "--n", "40"])
        assert code == 0
        assert out == "branchings=10 expected=10 match=true\n"

    def test_g4_split_and_explicit(self):
        _, by_n, _ = run(["trace-lb", "--family", "g4", "--n", "16"])
        _, by_pair, _ = run(["trace-lb", "--family", "g4", "--n3", "8", "--n4", "8"])
        assert by_n == by_pair == "branchings=4 expected=4 match=true\n"

    def test_g5_json(self):
        code, out, _ = run(["trace-lb", "--family", "g5", "--n", "40", "--json"])
        assert code == 0
        payload = json.loads(out)
        assert payload == {"branchings": 17, "expected": 17, "match": True,
                           "guard_failures": []}

    def test_step_log_on_stderr(self):
        _, _, err = run(["trace-lb", "--family", "g3", "--n", "8", "--stats"])
        assert "stat,step0," in err and "stat,step1," in err


class TestAuditMeasure:
    def test_sc_line(self):
        code, out, err = run(["audit-measure", "--system", "sc"])
        assert code == 0
        assert out == "feasible=true exponent=0.60243 base=1.5183\n"
        assert "feasible=true" in err  # full report is diagnostics

    def test_csp_line(self):
        code, out, _ = run(["audit-measure", "--system", "csp"])
        assert code == 0
        fields = dict(kv.split("=") for kv in out.split())
        assert fields["feasible"] == "true"
        assert abs(float(fields["exponent"]) - 0.2) < 1e-9
        assert abs(float(fields["base"]) - 1.2458) <= 1e-4

    def test_weights_override_can_break_feasibility(self, tmp_path):
        wfile = tmp_path / "w.txt"
        wfile.write_text("w_sep 3 0.30\n")  # separator cheaper than its payoff
        code, out, _ = run(["audit-measure", "--system", "sc",
                            "--weights", str(wfile)])
        assert code == 0
        assert out == "feasible=false\n"

    def test_json(self):
        code, out, _ = run(["audit-measure", "--system", "sc", "--json"])
        payload = json.loads(out)
        assert payload["feasible"] is True
        assert abs(payload["base"] - 1.5183) <= 1e-4


class TestExitCodes:
    def test_parse_error_is_2(self):
        code, _, err = run(["maxcut"], "graph 2 5\n0 1\n")
        assert code == 2 and "error:" in err

    @pytest.mark.parametrize("argv,text", [
        (["maxcut"], "graph -3 0\n"),
        (["count-ds"], "graph -3 0\n"),
        (["count-ds", "--subcubic"], "graph -3 0\n"),
        (["separate"], "graph -3 0\n"),
        (["oracle", "ds"], "graph -3 0\n"),
        (["solve-csp"], "max2csp 2 -5 0\nnil 0\n"),
        (["oracle", "csp"], "max2csp 2 -5 0\nnil 0\n"),
        (["count-sc"], "setcover -2 0\n"),
        (["oracle", "sc"], "setcover -2 0\n"),
        (["count-sc"], "setcover 0 -1\n"),
    ])
    def test_negative_header_size_is_2(self, argv, text):
        code, out, err = run(argv, text)
        assert code == 2 and out == "" and "negative" in err

    def test_guard_error_is_1(self):
        big = "max2csp 2 30 0\nnil 0\n" + "".join(f"v {i} 0 0\n" for i in range(30))
        code, _, err = run(["oracle", "csp"], big)
        assert code == 1 and "guard" in err

    def test_unknown_subcommand_is_2(self):
        assert run(["frobnicate"])[0] == 2

    def test_missing_input_file_is_2(self):
        code, _, _ = run(["maxcut", "--input", "/nonexistent/path.graph"])
        assert code == 2

    @pytest.mark.parametrize("argv", [
        ["count-sc", "--policy", "local"],
        ["count-ds", "--policy", "local"],
        ["count-ds", "--policy", "separator"],
        ["separate", "--policy", "local"],
        ["oracle", "ds", "--policy", "local"],
    ])
    def test_policy_rejected_where_ignored(self, argv):
        text = SC_SAMPLE if argv[0] == "count-sc" else K4
        code, out, err = run(argv, text)
        assert code == 2 and out == "" and "policy" in err

    def test_subcubic_count_ds_takes_policy(self):
        code, out, _ = run(["count-ds", "--subcubic", "--policy", "local"], K4)
        assert code == 0
        assert out == run(["count-ds"], K4)[1]

    @pytest.mark.parametrize("cmd", ["maxcut", "solve-csp", "max2sat"])
    def test_csp_audit_needs_separator_policy(self, cmd):
        # the Max 2-CSP measure audit follows the separator engine, so the
        # local policy would run with nothing audited
        text = {"solve-csp": run(["gen", "csp", "--n", "4", "--m", "3"])[1],
                "max2sat": "p cnf 2 1\n1 2 0\n"}.get(cmd, K4)
        code, out, err = run([cmd, "--policy", "local", "--audit-measure"], text)
        assert code == 2 and out == "" and "--audit-measure" in err
        code, _, err = run(["count-ds", "--subcubic", "--policy", "local",
                            "--audit-measure", "--stats"], K4)
        assert code == 0 and "stat,audit_entries,0" not in err

    @pytest.mark.parametrize("argv", [
        ["count-ds", "--subcubic"],
        ["maxcut"],
        ["solve-csp"],
        ["max2sat"],
        ["separate"],
        ["gen", "cubic", "--n", "8"],
        ["trace-lb", "--family", "g3", "--n", "8"],
        ["oracle", "ds"],
    ])
    def test_weights_rejected_where_ignored(self, argv, tmp_path):
        wfile = tmp_path / "w.txt"
        wfile.write_text("# the published table\n")
        text = {"solve-csp": run(["gen", "csp", "--n", "4", "--m", "3"])[1],
                "max2sat": "p cnf 2 1\n1 2 0\n"}.get(argv[0], K4)
        code, out, err = run(argv + ["--weights", str(wfile)], text)
        assert code == 2 and out == "" and "weights" in err

    def test_weights_accepted_where_read(self, tmp_path):
        wfile = tmp_path / "w.txt"
        wfile.write_text("# the published table\n")
        w = ["--weights", str(wfile)]
        assert run(["count-ds"] + w, K4) == run(["count-ds"], K4)
        assert run(["count-sc"] + w, SC_SAMPLE) == run(["count-sc"], SC_SAMPLE)
        code, out, err = run(["maxcut", "--audit-measure"] + w, K4)
        assert code == 0 and out == run(["maxcut"], K4)[1]
        assert "stat,audit_violations," in err


    @pytest.mark.parametrize("argv", [
        ["count-sc", "--seed", "5"],
        ["count-ds", "--seed", "5"],
        ["gen", "g3", "--n", "8", "--seed", "5"],
        ["oracle", "ds", "--seed", "5"],
        ["separate", "--audit-measure"],
        ["oracle", "ds", "--audit-measure"],
        ["gen", "cubic", "--n", "8", "--stats"],
        ["audit-measure", "--system", "sc", "--stats"],
        ["trace-lb", "--family", "g3", "--n", "8", "--input", "-"],
        ["audit-measure", "--system", "sc", "--input", "-"],
        ["gen", "cubic", "--n", "8", "--json"],
        ["solve-csp", "--seed", "5"],
        ["maxcut", "--seed", "5"],
        ["count-ds", "--subcubic", "--seed", "5"],
        ["separate", "--seed", "5"],
        ["gen", "g3", "--n", "8", "--m", "7"],
        ["gen", "cubic", "--n", "8", "--r", "5"],
        ["gen", "csp", "--n", "4", "--m", "3", "--n3", "2"],
        ["trace-lb", "--family", "g3", "--n", "8", "--n4", "3"],
    ])
    def test_shared_flag_rejected_where_ignored(self, argv):
        flag = [a for a in argv if a in ("--seed", "--audit-measure", "--stats", "--input",
                                         "--json", "--m", "--r", "--n3", "--n4")][-1]
        code, out, err = run(argv, SC_SAMPLE if argv[0] == "count-sc" else K4)
        assert code == 2 and out == "" and flag in err

    def test_shared_flags_accepted_where_read(self, tmp_path):
        assert run(["count-ds", "--subcubic"], K4)[1] == run(["count-ds"], K4)[1]
        assert run(["gen", "cubic", "--n", "8", "--seed", "5"])[0] == 0
        code, out, err = run(["count-sc", "--audit-measure"], SC_SAMPLE)
        assert code == 0 and out == "counts 0 0 1\n" and "stat,audit_violations,0" in err
        code, _, err = run(["separate", "--stats"], K4)
        assert code == 0 and "stat,sep_size," in err
        path = tmp_path / "k4.graph"
        path.write_text(K4)
        assert run(["oracle", "ds", "--input", str(path)]) == run(["oracle", "ds"], K4)
        code, out, _ = run(["oracle", "sc", "--json"], SC_SAMPLE)
        assert code == 0 and json.loads(out) == {"counts": [0, 0, 1]}


class TestDeterminism:
    def test_byte_identical_stdout(self):
        for argv, stdin in (
            (["maxcut", "--json"], K4),
            (["gen", "cubic", "--n", "20", "--seed", "9"], ""),
            (["count-sc"], SC_SAMPLE),
            (["separate"], K4),
        ):
            a = run(argv, stdin)
            b = run(argv, stdin)
            assert a == b


def test_module_entry_point(tmp_path):
    path = tmp_path / "k4.graph"
    path.write_text(K4)
    proc = subprocess.run(
        [sys.executable, "-m", "smc.cli", "maxcut", "--input", str(path)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == "score 4"
