"""Command-line behavior: subcommands, exit codes, and output formats."""

import json
import time

import pytest

from kripkelab.cli import main
from kripkelab.frame import forest, leq, parse_frame_spec

from util import fresh_python

TREE2 = "tree depth=2"
TREE3 = "tree depth=3"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_frame_reports_shape(capsys):
    code, out, _ = run(capsys, "frame", "--frame", TREE2)
    assert code == 0
    assert "tree(2)" in out and "bottom: e" in out


def test_eval_exit_codes_follow_forcing(capsys):
    phi = "~(#one_0 = #zero)"
    code, out, _ = run(capsys, "eval", "--frame", TREE2, phi)
    assert code == 1
    assert "e: unforced" in out
    code, out, _ = run(capsys, "eval", "--frame", TREE3, phi)
    assert code == 0
    assert "e: forced" in out


def test_eval_node_anchors_the_verdict(capsys):
    phi = "~(#one_0 = #zero)"
    code, out, _ = run(capsys, "eval", "--frame", TREE2, "--node", "1", phi)
    assert code == 0
    assert out.strip() == "1: forced"
    code, _, _ = run(capsys, "eval", "--frame", TREE2, "--node", "0", phi)
    assert code == 1


def test_eval_usage_errors(capsys):
    code, _, err = run(capsys, "eval", "--frame", TREE2, "x in")
    assert code == 2 and err.startswith("error:")
    code, _, err = run(capsys, "eval", "--frame", TREE2, "#ghost = #ghost")
    assert code == 2 and "ghost" in err
    code, _, err = run(capsys, "eval", "x = x")
    assert code == 2 and "--frame" in err


@pytest.mark.parametrize("command", ["eval", "dump"])
def test_frame_and_structure_are_exclusive(capsys, fixtures_dir, command):
    path = str(fixtures_dir / "uniformity_gap.struct")
    argv = [command, "--frame", TREE2, "--structure", path]
    with pytest.raises(SystemExit) as exc:
        main(argv + (["x = x"] if command == "eval" else []))
    assert exc.value.code == 2
    assert "not allowed with argument --frame" in capsys.readouterr().err


def test_eval_rejects_a_formula_nested_too_deeply(capsys):
    deep = "~" * 5000 + "x = x"
    code, _, err = run(capsys, "eval", "--frame", "chain length=1", deep)
    assert code == 2 and err.startswith("error:") and "nests too deeply" in err
    # parses, but forcing recurses about three frames per negation
    deep = "~" * 900 + "#zero = #zero"
    code, _, err = run(capsys, "eval", "--frame", "chain length=1", deep)
    assert code == 2 and err.startswith("error:") and "to evaluate" in err


@pytest.mark.parametrize(
    "spec",
    [
        "tree depth=99",
        "forest copies=3 depth=9",
        "nodes: " + " ".join(f"n{i}" for i in range(1025)),
    ],
    ids=["tree", "forest", "explicit"],
)
def test_frame_over_the_node_limit_exits_2(capsys, spec):
    code, out, err = run(capsys, "frame", "--frame", spec)
    assert code == 2 and out == ""
    assert err.startswith("error:") and "more than 1024 nodes" in err
    assert err.count("\n") == 1


@pytest.fixture(scope="module")
def at_the_limit_seconds():
    """Seconds spent by the cases below, which share one 10 s budget."""
    return []


@pytest.mark.parametrize(
    "spec",
    ["chain length=1024", "tree depth=10", "fan width=1023", "forest copies=2 depth=9"],
)
def test_frame_at_the_node_limit_dumps_and_reparses(capsys, at_the_limit_seconds, spec):
    t0 = time.monotonic()
    code, out, _ = run(capsys, "dump", "--what", "frame", "--frame", spec)
    assert code == 0
    assert parse_frame_spec(out).order == parse_frame_spec(spec).order
    at_the_limit_seconds.append(time.monotonic() - t0)
    spent = sum(at_the_limit_seconds)
    assert spent < 10.0, f"frames at the node limit took {spent:.1f}s of a 10s budget"


# the closure's worst case, a 1,024-node chain listed top node first
TOP_FIRST_CHAIN = "nodes: {} / order: {}".format(
    " ".join(map(str, range(1023, -1, -1))), " ".join(f"{i}<{i + 1}" for i in range(1023))
)


@pytest.mark.parametrize(
    "argv, seconds",
    [
        (["dump", "--what", "frame", "--frame", TOP_FIRST_CHAIN], 60),
        (["eval", "--frame", "chain length=256", "forall a . forall b in a . b in a"], 20),
        (["eval", "--frame", "chain length=512", "--node", "511", "#zero = #zero"], 10),
    ],
    ids=["frame-closure-top-first", "forcing-at-256-nodes", "canonical-structure-of-512"],
)
def test_a_long_chain_stays_fast_in_a_fresh_process(argv, seconds):
    fresh_python("-m", "kripkelab.cli", *argv, timeout=seconds)


def test_repeated_frame_parameter_exits_2(capsys):
    code, out, err = run(capsys, "frame", "--frame", "chain length=2 length=3")
    assert code == 2 and out == ""
    assert err.startswith("error:") and "'length' given twice" in err
    assert err.count("\n") == 1


def test_structure_file_over_the_node_limit_exits_2(capsys, tmp_path):
    path = tmp_path / "huge.struct"
    path.write_text("frame chain length=1025\n")
    code, _, err = run(capsys, "eval", "--structure", str(path), "x = x")
    assert code == 2 and "more than 1024 nodes" in err and err.count("\n") == 1


def test_def_reports_sizes(capsys):
    code, out, _ = run(capsys, "def", "--frame", "chain length=1", "--steps", "2")
    assert code == 0
    assert "0:" in out and "stabilized" in out


def test_L_subcommand(capsys):
    code, out, _ = run(capsys, "L", "--frame", "chain length=1",
                       "--ordinal", "three", "--depth", "2")
    assert code == 0
    code, _, err = run(capsys, "L", "--frame", "chain length=1", "--ordinal", "ghost")
    assert code == 2 and "unknown set name" in err and "zero" in err


def test_powerset_subcommand(capsys):
    code, out, _ = run(capsys, "powerset", "--frame", "chain length=1")
    assert code == 0 and "0:" in out


def test_lfp_and_gfp(capsys):
    code, out, _ = run(capsys, "gfp", "--frame", "chain length=1",
                       "--set", "two", "--formula", "exists w in #Y . w in x")
    assert code == 0
    assert "stage 0" in out and "fixpoint" in out
    code, _, err = run(capsys, "lfp", "--frame", "chain length=1",
                       "--set", "two", "--formula", "~(x in #Y)")
    assert code == 2 and "not positive" in err


def test_fixed_points_refuse_a_free_variable_beside_x(capsys):
    for cmd in (("lfp",), ("gfp",), ("dump", "--what", "trace")):
        code, _, err = run(capsys, *cmd, "--frame", "chain length=1",
                           "--set", "three", "--formula", "~(x in Y)")
        assert code == 2 and "selection variable" in err


def test_check_exit_codes(capsys):
    code, out, _ = run(capsys, "check", "--frame", TREE2,
                       "--schema", "EpsilonInduction")
    assert code == 0 and "holds" in out
    code, out, _ = run(capsys, "check", "--frame", TREE2, "--schema", "Pairing")
    assert code == 1 and "fails" in out and "Pairing" in out
    code, _, err = run(capsys, "check", "--frame", TREE2, "--schema", "Shiny")
    assert code == 2 and "EpsilonInduction" in err


def test_check_refuses_a_formula_layer_too_large_to_build(capsys):
    t0 = time.monotonic()
    code, out, err = run(capsys, "check", "--frame", "chain length=1",
                         "--schema", "Delta0Comprehension", "--depth", "5")
    assert code == 2 and out == ""
    assert err == (
        "error: the depth-3 formula layer has 11,587,630 formulas, past "
        "LAYER_CAP (2,097,152); lower the depth\n"
    )
    assert time.monotonic() - t0 < 5.0


def test_check_refuses_a_last_layer_too_large_to_read(capsys):
    # the depth-3 layer is the last one the sweep reads; it has 41 billion formulas
    t0 = time.monotonic()
    code, out, err = run(capsys, "check", "--frame", "chain length=1",
                         "--schema", "Delta0Bounding", "--depth", "3")
    assert code == 2 and out == ""
    assert err == (
        "error: the depth-3 formula layer has 41,375,521,342 formulas, past "
        "LAYER_CAP (2,097,152); lower the depth\n"
    )
    assert time.monotonic() - t0 < 5.0


def test_dump_refuses_a_wrong_builder_arity(capsys, tmp_path):
    path = tmp_path / "bad.struct"
    path.write_text("frame chain length=1\nx = nat 2 3\n", encoding="utf-8")
    code, out, err = run(capsys, "dump", "--what", "structure", "--structure", str(path))
    assert code == 2 and out == ""
    assert err == "error: line 2: builder 'nat' takes 1 argument(s)\n"


@pytest.mark.parametrize("length, builder", [(1, "nat 20000"), (2, "L 20"), (32, "nat 1024"), (8, "L 8")])
def test_eval_refuses_an_unbounded_builder_before_building(capsys, tmp_path, length, builder):
    path = tmp_path / "unbounded.struct"
    path.write_text(f"frame chain length={length}\nx = {builder}\n", encoding="utf-8")
    code, out, err = run(capsys, "eval", "--structure", str(path), "#x = #x")
    assert code == 2 and out == "" and err.startswith("error: name 'x': ")


@pytest.mark.parametrize(
    "entry, message",
    [
        (("x", "nat", ("2", "3")), "entry 1: builder 'nat' takes 1 argument(s)"),
        (("x", "widget", ()), "entry 1: unknown builder 'widget'"),
        (("x", "nat", ()), "entry 1: builder 'nat' takes 1 argument(s)"),
    ],
    ids=["extra-argument", "unknown-builder", "missing-argument"],
)
def test_a_hand_built_spec_exits_2(capsys, monkeypatch, tmp_path, entry, message):
    # the file's text is replaced by a spec no parsed line could give
    from kripkelab import specfile

    monkeypatch.setattr(
        specfile, "parse_structure_spec", lambda text: specfile.StructSpec("chain length=1", (entry,))
    )
    path = tmp_path / "any.struct"
    path.write_text("frame chain length=1\n", encoding="utf-8")
    code, out, err = run(capsys, "eval", "--structure", str(path), "#x = #x")
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


def test_check_designated_instance_from_structure(capsys, fixtures_dir):
    path = str(fixtures_dir / "uniformity_gap.struct")
    code, out, _ = run(capsys, "check", "--structure", path,
                       "--schema", "Delta0Uniformity", "--scope", "bottom")
    assert code == 1
    assert "y in x" in out and "cofinal stage family" in out


def test_prop1_reports_without_failing(capsys, corpus_dir):
    code, out, _ = run(capsys, "prop1", "--corpus", str(corpus_dir))
    assert code == 0
    assert "agreements: 1  disagreements: 2" in out
    code, _, err = run(capsys, "prop1", "--corpus", str(corpus_dir / "missing"))
    assert code == 2 and err.startswith("error:")


def test_lemmas_depth_zero_degrades_without_failing(capsys):
    code, out, _ = run(capsys, "lemmas", "--depth", "0", "--samples", "25")
    assert code == 0
    assert "suite: pass" in out
    assert "under-enumeration" in out and "definability depth 0" in out


def test_dump_frame_round_trips(capsys):
    code, out, _ = run(capsys, "dump", "--what", "frame",
                       "--frame", "forest copies=2 depth=2")
    assert code == 0
    g = parse_frame_spec(out)
    f = forest(2, 2)
    assert set(g.nodes) == set(f.nodes)
    for a in f.nodes:
        for b in f.nodes:
            assert leq(f, a, b) == leq(g, a, b)


def test_dump_structure_is_canonical(capsys, fixtures_dir):
    path = str(fixtures_dir / "uniformity_gap.struct")
    code, out, _ = run(capsys, "dump", "--what", "structure", "--structure", path)
    assert code == 0
    assert out == (fixtures_dir / "uniformity_gap.struct").read_text(encoding="utf-8")
    code, _, err = run(capsys, "dump", "--what", "structure", "--frame", TREE2)
    assert code == 2 and "--structure" in err


def test_dump_trace_lists_stages(capsys):
    code, out, _ = run(capsys, "dump", "--what", "trace", "--frame", "chain length=1",
                       "--set", "two", "--formula", "exists w in #Y . w in x",
                       "--mode", "gfp")
    assert code == 0
    assert out.count("stage") >= 2


def test_structured_output_is_stable_json(capsys):
    argv = ["check", "--frame", TREE2, "--schema", "EmptySet",
            "--format", "structured"]
    code1, out1, _ = run(capsys, *argv)
    code2, out2, _ = run(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["schema"] == "EmptySet" and payload["holds"] is True


def test_format_flag_works_in_both_positions(capsys):
    lead = run(capsys, "--format", "structured", "frame", "--frame", TREE2)
    trail = run(capsys, "frame", "--frame", TREE2, "--format", "structured")
    assert lead == trail
    assert json.loads(lead[1])["kind"] == "tree(2)"


def test_format_env_variable_and_override(capsys, monkeypatch):
    monkeypatch.setenv("KRIPKELAB_FORMAT", "structured")
    code, out, _ = run(capsys, "frame", "--frame", TREE2)
    assert code == 0
    assert json.loads(out)["bottom"] == "e"
    # the flag wins over the environment
    code, out, _ = run(capsys, "frame", "--frame", TREE2, "--format", "text")
    assert code == 0 and "bottom: e" in out


def test_an_unknown_format_in_the_environment_exits_2_before_the_command(capsys, monkeypatch):
    monkeypatch.setenv("KRIPKELAB_FORMAT", "json")
    code, out, err = run(capsys, "frame", "--frame", TREE2)
    assert code == 2 and out == ""
    assert err == "error: KRIPKELAB_FORMAT must be 'text' or 'structured', got 'json'\n"
    # the flag wins, so the environment is not read
    code, out, _ = run(capsys, "frame", "--frame", TREE2, "--format", "structured")
    assert code == 0 and json.loads(out)["bottom"] == "e"


@pytest.mark.parametrize(
    "golden, argv",
    [
        ("lemmas_tree_depth2.json", ["lemmas", "--tree-depth", "2"]),
        ("lemmas_tree_depth3.json", ["lemmas", "--tree-depth", "3"]),
        ("def_tree_depth3.json", ["def", "--frame", TREE3]),
        ("def_fan_width3_depth2.json", ["def", "--frame", "fan width=3", "--depth", "2"]),
        ("L_tree_depth3_two.json", ["L", "--frame", TREE3, "--ordinal", "two"]),
        ("prop1_corpus.json", ["prop1", "--corpus", "{fixtures}/corpus"]),
        (
            "check_gap_bounding_bottom.json",
            ["check", "--structure", "{fixtures}/uniformity_gap.struct",
             "--schema", "Delta0Bounding", "--scope", "bottom"],
        ),
    ],
    ids=[
        "lemmas", "lemmas-tree3", "def-tree3", "def-fan3-depth2", "L-tree3",
        "prop1-corpus", "check-gap",
    ],
)
def test_structured_output_matches_its_golden_bytes(capsys, fixtures_dir, golden, argv):
    argv = [arg.format(fixtures=fixtures_dir) for arg in argv]
    code, out, _ = run(capsys, *argv, "--format", "structured")
    assert code == 0
    assert out.encode("utf-8") == (fixtures_dir / "golden" / golden).read_bytes()
