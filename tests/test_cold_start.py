"""A cold process loads only the modules its subcommand runs, and the
package's flat namespace resolves each name on first use."""

import functools
import os
import subprocess
import sys
from pathlib import Path

import pytest

import kripkelab

SRC = Path(kripkelab.__file__).parent.parent
MARKERS = str(Path(__file__).parent / "fixtures" / "corpus" / "markers.struct")

PUBLIC = [
    "AXIOM_IDS", "And", "CheckBounds", "CheckReport", "DefConfig", "DesignatedInstance",
    "EQUIVALENT_TRIO", "Eq", "EvalError", "Exists", "Forall", "Formula", "Frame",
    "FrameKind", "Implies", "KripkeSet", "LemmaResult", "Member", "Not", "Or", "Param",
    "ParseError", "Prop1Report", "Prop1Row", "SchemaId", "SpecError", "StructSpec",
    "Structure", "Term", "Var", "alpha_forest", "branch_formula", "branch_from_bits",
    "build_frame", "build_structure", "build_template", "canonical_structure", "chain",
    "check_schema", "classify", "constructible", "def_along", "def_step",
    "definable_branches", "define_subset", "delta0_absolute", "dump_frame",
    "dump_structure_spec", "empty_set", "empty_structure", "enumerate_delta0",
    "enumerate_pi", "enumerate_sigma", "externalize", "fan", "forced_equal",
    "forced_member", "forces", "forcing_mask", "forest", "formula_stream", "free_vars",
    "gamma_apply", "gfp", "hereditary_closure", "internal_nat", "is_branch",
    "is_delta0", "is_end_extension", "is_ordinal", "is_positive_in", "iterate_def",
    "leaves", "lemma_suite", "leq", "lfp", "load_structure", "make_xi",
    "monotone_t_families", "one_sigma", "p_hat", "p_hat_sub", "params_of", "parse",
    "parse_frame_spec", "parse_structure_spec", "phi_xy", "powerset",
    "proposition1_crosscheck", "relativize", "render", "structure_from_sets",
    "subset_of_t", "substitute", "t_classes_at", "t_family", "tree", "tree_depth",
    "uniformity_gap", "universe_at", "up_set", "with_zero",
]

FRAME_ONLY = {"kripkelab", "kripkelab.frame"}
NO_SCHEMA = {
    "kripkelab",
    "kripkelab.construct",
    "kripkelab.formula",
    "kripkelab.frame",
    "kripkelab.hierarchy",
    "kripkelab.semantics",
    "kripkelab.specfile",
}
# structure assembly lives in semantics, so a structure without `L` lines
# needs no definability engine
NO_ENGINE = NO_SCHEMA - {"kripkelab.hierarchy"}
EVERY = NO_SCHEMA | {"kripkelab.schema"}


@functools.cache
def imported_modules(key: str) -> frozenset[str]:
    """The modules a cold `python -m kripkelab.cli` run of COMMANDS[key]
    imports.  `-X importtime` lists each module once, on stderr, as its
    import ends; the cli module itself runs as `__main__` and is not among
    them."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "kripkelab.cli", *COMMANDS[key][0]],
        env={**os.environ, "PYTHONPATH": str(SRC), "PYTHONDONTWRITEBYTECODE": "1"},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode in (0, 1), proc.stderr
    return frozenset(
        line.rsplit("|", 1)[1].strip()
        for line in proc.stderr.splitlines()
        if line.startswith("import time:")
    )


COMMANDS = {
    "frame": (["frame", "--frame", "tree depth=3"], FRAME_ONLY),
    "dump-frame": (["dump", "--what", "frame", "--frame", "forest copies=2 depth=2"], FRAME_ONLY),
    "eval": (["eval", "--frame", "tree depth=2", "~(#one_0 = #zero)"], NO_ENGINE),
    "dump-structure": (["dump", "--what", "structure", "--structure", MARKERS], NO_ENGINE),
    "L": (["L", "--frame", "tree depth=2", "--ordinal", "two"], NO_SCHEMA),
    "powerset": (["powerset", "--frame", "chain length=1"], NO_SCHEMA),
    "lfp": (
        ["lfp", "--frame", "chain length=1", "--set", "three", "--formula", "x = #zero"],
        NO_SCHEMA,
    ),
    "check": (["check", "--frame", "chain length=3", "--schema", "Delta0Uniformity"], EVERY),
}


@pytest.mark.parametrize("key", COMMANDS)
def test_a_cold_subcommand_imports_only_what_it_runs(key):
    ours = {n for n in imported_modules(key) if n == "kripkelab" or n.startswith("kripkelab.")}
    assert ours == COMMANDS[key][1]


@pytest.mark.parametrize("key", COMMANDS)
def test_a_cold_subcommand_imports_no_dataclasses(key):
    # `dataclasses` pulls in `inspect`, `ast`, `dis` and `tokenize`, and
    # writes each class's methods through `exec`: the library uses neither
    assert not imported_modules(key) & {"dataclasses", "inspect"}


def test_all_is_the_public_api_unchanged():
    assert kripkelab.__all__ == PUBLIC


def test_dir_lists_every_public_name():
    assert set(kripkelab.__all__) <= set(dir(kripkelab))


def test_an_unknown_name_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="no_such_name"):
        kripkelab.no_such_name


def test_a_public_name_is_the_owning_module_value():
    from kripkelab import cli
    from kripkelab.schema import check_schema

    assert kripkelab.check_schema is check_schema
    assert callable(cli.main)
