"""Structure files: grammar, builders, privacy rules, and round-trips."""

import random
import re
from pathlib import Path

import pytest

from kripkelab.construct import empty_set, internal_nat, one_sigma, p_hat
from kripkelab.frame import tree
from kripkelab.schema import DesignatedInstance, SchemaId
from kripkelab.semantics import forced_equal, forced_member, universe_at
from kripkelab.specfile import (
    _BUILDERS,
    build_structure,
    canonical_structure,
    dump_structure_spec,
    load_structure,
    parse_structure_spec,
    SpecError,
    StructSpec,
    UNIFORMITY_GAP_TEXT,
    uniformity_gap,
)

from util import find_class

BASIC = """\
frame tree depth=2
zero = empty
two = nat 2
d0 = one_sigma 0
p = pair zero two
u = union p
_hidden = nat 3
"""


def test_parse_and_dump_round_trip():
    spec = parse_structure_spec(BASIC)
    text = dump_structure_spec(spec)
    assert parse_structure_spec(text) == spec
    # canonical form is a fixed point of the round trip
    assert dump_structure_spec(parse_structure_spec(text)) == text
    # blank and comment-only lines are skipped, before the frame line too
    commented = "# a structure\n\n" + BASIC.replace("two = nat 2\n", "two = nat 2\n\n  # the pair\n")
    assert parse_structure_spec(commented) == spec


def test_hash_inside_a_quoted_value_is_not_a_comment():
    text = 'frame tree depth=2\np = nat 1  # a comment\ndesignate Pi2Reflection phi="x in #p"\n'
    spec = parse_structure_spec(text)
    assert spec.designations[0].phi == "x in #p"
    dumped = dump_structure_spec(spec)
    assert parse_structure_spec(dumped) == spec
    assert dump_structure_spec(parse_structure_spec(dumped)) == dumped


# each value goes in every slot a dump writes it to; a designation's
# formula must fit its schema, so formulas are tried on their own below, and
# its parameter keys must be parameters its template reads, so the key is #p
TRICKY = {
    "double-quote": 'say "hi"',
    "backslash": "back\\slash",
    "trailing-backslash": "ends\\",
    "hash": "a#b",
    "leading-hash": "#lead",
    "space": "two words",
    "tab": "tab\there",
    "single-quote": "it's",
    "empty": "",
    "non-ascii": "Δ₀ café",
    "plain": "x",
}


@pytest.mark.parametrize("value", TRICKY.values(), ids=TRICKY.keys())
def test_a_dump_parses_back_to_the_same_spec(value):
    inst = DesignatedInstance(SchemaId.DELTA0_BOUNDING, "y in #p", (("p", value),), value, value)
    spec = StructSpec("chain length=1", ((value, "nat", (value,)),), (value,), (inst,))
    assert parse_structure_spec(dump_structure_spec(spec)) == spec


# what a hand-built spec draws from: the tricky values, the directive and
# key words, and formulas that fit some slots, no slot or do not parse
WORDS = list(TRICKY.values()) + ["frame", "universe", "designate", "phi", "node", "label", "A", "p"]
PHIS = [None, "y in x", "x in #p", "a in #p", "x = x", "exists q . q in x", "y in", ""]


def _hand_built(rng):
    """A StructSpec drawn at random, built as a caller would build it, or
    None where a constructor refuses it."""
    entries, names = [], []
    for _ in range(rng.randrange(4)):
        builder = rng.choice(sorted(_BUILDERS))
        arity = _BUILDERS[builder].arity
        pool = names if _BUILDERS[builder].refs else WORDS
        count = rng.randrange(3) if arity is None else arity
        args = tuple(rng.choice(pool or WORDS) for _ in range(count))
        entries.append((rng.choice(WORDS), builder, args))
        names.append(entries[-1][0])
    seeds = tuple(rng.sample(names, rng.randrange(len(names) + 1)))
    try:
        designations = tuple(
            DesignatedInstance(
                rng.choice(list(SchemaId)),
                rng.choice(PHIS),
                tuple((rng.choice(["A", "p", "B", "phi"]), rng.choice(names or WORDS))
                      for _ in range(rng.randrange(2))),
                rng.choice([None, *WORDS]),
                rng.choice(WORDS),
            )
            for _ in range(rng.randrange(3))
        )
        frame_text = rng.choice(["chain length=1", "fan width=2"])
        return StructSpec(frame_text, tuple(entries), seeds, designations)
    except ValueError:
        return None


def test_every_hand_built_spec_the_constructors_accept_parses_back():
    rng = random.Random(49)
    specs = [spec for spec in (_hand_built(rng) for _ in range(3000)) if spec is not None]
    assert len(specs) > 300 and sum(bool(spec.designations) for spec in specs) > 50
    for spec in specs:
        assert parse_structure_spec(dump_structure_spec(spec)) == spec, spec


@pytest.mark.parametrize("phi", ["x in #p", "x = x", "x in y /\\ y = x", "forall z in x . z in y"])
def test_a_dumped_formula_parses_back(phi):
    spec = StructSpec("chain length=1", (), (), (DesignatedInstance(SchemaId.PI2_REFLECTION, phi),))
    text = dump_structure_spec(spec)
    assert parse_structure_spec(text) == spec
    # a formula is always quoted, as before its escapes were added
    assert text.endswith(' phi="' + phi.replace("\\", "\\\\") + '"\n')


@pytest.mark.parametrize(
    "designation, message",
    [
        ('designate Pairing phi="y in x"', "line 2: designate Pairing: Pairing takes no instance formula"),
        (
            'designate Delta0Bounding phi="exists q . q in x"',
            "line 2: designate Delta0Bounding: Delta0Bounding instances must be bounded formulas",
        ),
        (
            'designate Delta0Bounding phi="y in x" node=ghost',
            "designate Delta0Bounding: unknown node 'ghost'",
        ),
    ],
    ids=["axiom-with-phi", "unbounded-phi", "unknown-node"],
)
def test_a_malformed_designation_is_refused_at_load(tmp_path, designation, message):
    path = tmp_path / "bad.struct"
    path.write_text(f"frame chain length=1\n{designation}\n", encoding="utf-8")
    with pytest.raises(SpecError) as err:
        load_structure(str(path))
    assert str(err.value) == message


@pytest.mark.parametrize(
    "designation, message",
    [
        (
            'designate Delta0Uniformity phi="y in x" B=_W node=bot',
            "line 3: designate Delta0Uniformity: the template reads no parameter #B (it reads #A)",
        ),
        (
            'designate Delta0Uniformity phi="y in x" A=_W A=_W',
            "line 3: designate Delta0Uniformity: key 'A' given twice",
        ),
        (
            'designate Delta0Uniformity phi="y in x" phi="x in y" A=_W',
            "line 3: designate Delta0Uniformity: key 'phi' given twice",
        ),
        (
            "designate Pairing A=_W",
            "line 3: designate Pairing: the template reads no parameter #A (it reads none)",
        ),
    ],
    ids=["unread-key", "repeated-key", "repeated-phi", "axiom-with-key"],
)
def test_designation_keys_are_checked_against_the_template(tmp_path, designation, message):
    path = tmp_path / "bad.struct"
    path.write_text(f"frame fan width=2\n_W = nat 2\n{designation}\n", encoding="utf-8")
    with pytest.raises(SpecError) as err:
        load_structure(str(path))
    assert str(err.value) == message


def test_build_structure_binds_names():
    s = build_structure(parse_structure_spec(BASIC))
    f = s.frame
    assert forced_equal(f, "e", s.names["zero"], empty_set(f))
    assert forced_equal(f, "e", s.names["two"], internal_nat(f, 2))
    assert forced_equal(f, "e", s.names["d0"], one_sigma(f, "0"))
    # pair holds both, union of the pair flattens to two's members plus none
    assert forced_member(f, "e", s.names["zero"], s.names["p"])
    assert forced_member(f, "e", s.names["two"], s.names["p"])
    assert forced_equal(f, "e", s.names["u"], internal_nat(f, 2))


def test_underscore_names_stay_out_of_the_universe():
    s = build_structure(parse_structure_spec(BASIC))
    f = s.frame
    assert "_hidden" in s.names
    assert find_class(f, "e", universe_at(s, "e"), internal_nat(f, 3)) is None
    assert find_class(f, "e", universe_at(s, "e"), internal_nat(f, 2)) is not None


def test_universe_directive_seeds_extensions():
    text = (
        "frame fan width=2\n"
        "_stages = staged_nats bot:1 1:2 2:3\n"
        "universe _stages\n"
    )
    s = build_structure(parse_structure_spec(text))
    sizes = {n: len(universe_at(s, n)) for n in s.frame.nodes}
    assert sizes == {"bot": 1, "1": 2, "2": 3}
    # the container itself stays out
    assert find_class(s.frame, "bot", universe_at(s, "bot"), s.names["_stages"]) is None


def test_builders_cover_the_catalog():
    text = (
        "frame tree depth=2\n"
        "q = phat\n"
        "q0 = phat0\n"
        "b = branch 1\n"
        "lv = L 1\n"
    )
    s = build_structure(parse_structure_spec(text))
    f = s.frame
    assert forced_equal(f, "e", s.names["q"], p_hat(f))
    assert forced_member(f, "e", empty_set(f), s.names["q0"])
    assert forced_member(f, "e", one_sigma(f, "1"), s.names["b"])
    assert forced_member(f, "e", empty_set(f), s.names["lv"])


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("zero = empty\n", "first entry must name the frame"),
        ("frame tree depth=2\nframe tree depth=2\n", "duplicate frame line"),
        ("frame tree depth=2\nx = widget\n", "unknown builder"),
        ("frame tree depth=2\nx = pair a b\n", "unknown name"),
        ("frame tree depth=2\nx = nat 2\nx = nat 3\n", "bound twice"),
        ("frame tree depth=2\nx nat 2\n", "expected `name = builder args...`"),
        ("frame tree depth=2\nuniverse ghost\n", "unknown name"),
        ("frame tree depth=2\nx = nat q\n", "bad numeral"),
        ("frame tree depth=2\nx = one_sigma zz\n", "unknown node"),
        ("frame tree depth=2\nx = nat 2 3\n", "takes 1 argument"),
        ("frame tree depth=2\nx = L -1\n", "level count"),
        ("frame chain length=1\nx = nat 20000\n", r"numeral 20000 is past NAT_CAP \(1024\)"),
        # the cap counts nodes: nat 1024 on 32 nodes takes 14-16 s to build and read
        ("frame chain length=32\nx = nat 1024\n",
         r"numeral 1024 is past NAT_CAP \(1024\) on a 32-node frame \(at most 32\)"),
        ("frame chain length=32\n_s = staged_nats " + " ".join(f"{i}:33" for i in range(32)),
         r"count 33 is past NAT_CAP"),
        ("frame chain length=2\nx = L 20\n", r"level count 20 is past LEVEL_CAP \(8\)"),
        # the level cap counts nodes too: L 8 takes 2.7 s on tree depth=3 and
        # 5.7 s on chain length=8
        ("frame chain length=8\nx = L 8\n",
         r"level count 8 is past LEVEL_NODE_CAP \(24\) on a 8-node frame \(at most 3\)"),
        ("frame tree depth=3\nx = L 4\n", r"level count 4 is past LEVEL_NODE_CAP \(24\)"),
        ("frame tree depth=2\ndesignate Shiny phi=\"x = x\"\n", "unknown schema"),
        ("frame tree depth=2\ndesignate Pairing A=ghost\n", "unknown name"),
        ("frame fan width=2\n_s = staged_nats bot:2 1:1 2:3\nuniverse _s\n",
         "grow along the order"),
        ("frame chain length=3\n_s = staged_nats 0:2 1:1 2:3\nuniverse _s\n",
         "grow along the order"),
        ("frame fan width=2\n_s = staged_nats bot:1\nuniverse _s\n", "missing counts"),
    ],
)
def test_spec_errors(text, fragment):
    with pytest.raises(SpecError, match=fragment):
        build_structure(parse_structure_spec(text))


@pytest.mark.parametrize(
    "line, message",
    [
        ("x = nat 2 3", "line 2: builder 'nat' takes 1 argument(s)"),
        ("x = empty 1", "line 2: builder 'empty' takes 0 argument(s)"),
        # the count is checked before the names it would read
        ("x = pair a", "line 2: builder 'pair' takes 2 argument(s)"),
    ],
)
def test_a_wrong_argument_count_is_refused_when_the_line_is_read(line, message):
    with pytest.raises(SpecError) as err:
        parse_structure_spec(f"frame tree depth=2\n{line}\n")
    assert str(err.value) == message


# entries a hand-built spec may hold that no parsed line can: each was
# once built as given (`nat 2`) or failed with a bare KeyError or IndexError
HAND_BUILT = {
    "extra-argument": (("x", "nat", ("2", "3")), "entry 1: builder 'nat' takes 1 argument(s)"),
    "unknown-builder": (("x", "widget", ()), "entry 1: unknown builder 'widget'"),
    "missing-argument": (("x", "nat", ()), "entry 1: builder 'nat' takes 1 argument(s)"),
    # a line starting with one of these is read as the directive, so such a
    # spec was built but its dump did not parse back
    **{
        f"directive-{word}": ((word, "empty", ()), f"entry 1: name {word!r} is a directive")
        for word in ("frame", "universe", "designate")
    },
}


@pytest.mark.parametrize("entry, message", HAND_BUILT.values(), ids=HAND_BUILT.keys())
def test_a_hand_built_spec_is_checked_as_a_parsed_line_is(entry, message):
    with pytest.raises(SpecError) as err:
        build_structure(StructSpec("chain length=1", (entry,)))
    assert str(err.value) == message


@pytest.mark.parametrize(
    "spec, message",
    [
        (("chain length=1", (("x", "empty", ()), ("x", "empty", ()))), "entry 2: name 'x' bound twice"),
        (("chain length=1", (("p", "pair", ("a", "a")),)), "entry 1: unknown name 'a'"),
        (("chain length=1", (("x", "empty", ()),), ("ghost",)), "universe: unknown name 'ghost'"),
        (
            (
                "chain length=1",
                (),
                (),
                (DesignatedInstance(SchemaId.DELTA0_UNIFORMITY, "y in x", (("A", "W"),)),),
            ),
            "designate Delta0Uniformity: unknown name 'W'",
        ),
    ],
    ids=["rebound", "pair-reference", "universe-seed", "designation"],
)
def test_a_hand_built_spec_refuses_names_it_does_not_bind(spec, message):
    with pytest.raises(SpecError) as err:
        StructSpec(*spec)
    assert str(err.value) == message


def test_the_readme_lists_the_builder_table():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    sentence = readme[readme.index("Builders, one entry each"):].split(".  ", 1)[0]
    listed = dict(re.findall(r"`(\w+)((?: <[^>]+>)*)`", sentence))
    assert listed.keys() == _BUILDERS.keys()
    for name, placeholders in listed.items():
        args = re.findall(r"<([^>]+)>", placeholders)
        if _BUILDERS[name].arity is None:
            assert len(args) == 1 and args[0].endswith("..."), name
        else:
            assert len(args) == _BUILDERS[name].arity, name


def test_the_numeral_cap_admits_its_bound():
    x = build_structure(parse_structure_spec("frame chain length=32\nx = nat 32\n")).names["x"]
    assert len(x.ext["0"]) == 32


def test_the_level_cap_admits_its_bound():
    x = build_structure(parse_structure_spec("frame chain length=8\nx = L 3\n")).names["x"]
    assert x.label == "L3"


def test_gap_fixture_matches_the_shipped_file(fixtures_dir):
    on_disk = (fixtures_dir / "uniformity_gap.struct").read_text(encoding="utf-8")
    assert on_disk == UNIFORMITY_GAP_TEXT
    canon = dump_structure_spec(parse_structure_spec(UNIFORMITY_GAP_TEXT))
    assert canon == UNIFORMITY_GAP_TEXT


def test_gap_structure_shape():
    s = uniformity_gap()
    sizes = {n: len(universe_at(s, n)) for n in s.frame.nodes}
    assert sizes == {"bot": 1, "1": 2, "2": 3, "3": 4}
    note = s.notes[0]
    assert note.schema is SchemaId.DELTA0_UNIFORMITY
    assert note.phi == "y in x"
    assert note.params == (("A", "_W"),)
    assert note.node == "bot"
    assert note.label == "cofinal stage family"


def test_load_structure_from_corpus(corpus_dir):
    s = load_structure(str(corpus_dir / "level2.struct"))
    sizes = {n: len(universe_at(s, n)) for n in s.frame.nodes}
    assert sizes == {"0": 3, "1": 3}
    m = load_structure(str(corpus_dir / "markers.struct"))
    assert {n: len(universe_at(m, n)) for n in m.frame.nodes} == {"e": 8, "0": 8, "1": 8}


def test_canonical_structure_names():
    f = tree(2)
    s = canonical_structure(f)
    want = {"zero", "one", "two", "three", "phat", "phat0", "one_e", "one_0", "one_1"}
    assert set(s.names) == want
    assert forced_equal(f, "e", s.names["one_0"], one_sigma(f, "0"))
