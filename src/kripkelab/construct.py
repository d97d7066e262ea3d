"""Canonical Kripke sets: numerals, the delayed ones, their collections,
branches through binary trees, and the two-rooted forest fixtures.

All constructions are interned per frame so repeated calls return the same
object, whose class labels are then computed only once.
"""

from __future__ import annotations

import functools
import itertools
from collections.abc import Iterator

from .formula import Formula, parse
from .frame import Frame, leq, linear_extension, up_set
from .semantics import KripkeSet, Structure, _fresh, class_at, forced_member, forces


def _intern(f: Frame, key: tuple, build):
    if key not in f.constructs:
        f.constructs[key] = build()
    return f.constructs[key]


def empty_set(f: Frame) -> KripkeSet:
    return _intern(
        f, ("nat", 0), lambda: KripkeSet(f, f.bottom, {t: () for t in f.nodes}, "0")
    )


def internal_nat(f: Frame, k: int) -> KripkeSet:
    """The constant von Neumann numeral: members are the smaller numerals."""
    if k < 0:
        raise ValueError("numerals start at 0")
    if k == 0:
        return empty_set(f)

    def build() -> KripkeSet:
        members = tuple(internal_nat(f, j) for j in range(k))
        return KripkeSet(f, f.bottom, {t: members for t in f.nodes}, str(k))

    return _intern(f, ("nat", k), build)


def one_sigma(f: Frame, sigma: str) -> KripkeSet:
    """Empty exactly on the down-set of sigma, the numeral 1 elsewhere.

    Born at the bottom; on any node that does not sit below sigma the
    extension is {0}, so beyond sigma (and incomparably to it) the set is
    indistinguishable from 1.
    """
    if sigma not in f.pos:
        raise ValueError(f"unknown node {sigma!r}")

    def build() -> KripkeSet:
        zero = empty_set(f)
        ext = {
            tau: (() if leq(f, tau, sigma) else (zero,)) for tau in f.nodes
        }
        return KripkeSet(f, f.bottom, ext, f"one_{sigma}")

    return _intern(f, ("one", sigma), build)


def t_family(f: Frame) -> tuple[KripkeSet, ...]:
    """All delayed ones, deduplicated by forced equality at the bottom."""

    def build() -> tuple[KripkeSet, ...]:
        return tuple(_fresh((one_sigma(f, sigma) for sigma in f.nodes), f.bottom))

    return _intern(f, ("tfam",), build)


def p_hat(f: Frame) -> KripkeSet:
    """The constant collection of all delayed ones."""
    def build() -> KripkeSet:
        members = t_family(f)
        return KripkeSet(f, f.bottom, {t: members for t in f.nodes}, "phat")

    return _intern(f, ("phat",), build)


def _t_uids(f: Frame) -> frozenset[int]:
    """The uids of the delayed ones, the members a selection may pick."""
    return _intern(f, ("tuids",), lambda: frozenset(m.uid for m in t_family(f)))


def subset_of_t(
    f: Frame, ext: dict[str, tuple[KripkeSet, ...]], label: str = ""
) -> KripkeSet:
    """A monotone selection from the delayed ones, given per node, born at
    the bottom."""
    allowed = _t_uids(f)
    for members in ext.values():
        for m in members:
            if m.uid not in allowed:
                raise ValueError(f"{m!r} is not one of the delayed ones")
    return KripkeSet(f, f.bottom, ext, label)


def t_classes_at(f: Frame, tau: str) -> tuple[tuple[KripkeSet, ...], ...]:
    """Forced-equality classes of the delayed ones at one node."""
    classes: dict[int, list[KripkeSet]] = {}
    for m in t_family(f):
        classes.setdefault(class_at(m, tau), []).append(m)
    return tuple(tuple(cl) for cl in classes.values())


# the most monotone selections any caller enumerates in full
POWERSET_CAP = 1 << 16


class _ChoiceTable:
    """Each node's monotone choices from its groups (tuples of sets), keyed
    by the mask of groups the nodes below force it to pick.

    Groups are bit positions.  `options` holds, per node and required mask,
    a never-read `tee` copy of its (picked mask, member tuple) stream, in
    the order `itertools.combinations` takes the free groups, which keeps
    every pair any copy has read; `tuples` keeps one member tuple per
    distinct member sequence, so every selection that picks the same
    members, at any node, shares one tuple object.
    """

    def __init__(self, f: Frame, groups: dict) -> None:
        self.f = f
        self.groups = groups
        self.options: dict[tuple[str, int], Iterator] = {}
        self.tuples: dict[tuple[KripkeSet, ...], tuple[KripkeSet, ...]] = {}

    def choices(self, tau: str, required: int) -> Iterator:
        """tau's picks that hold `required`, produced on first read and kept
        for every later one, so a wide node yields only what is read."""
        key = (tau, required)
        if key not in self.options:
            self.options[key] = itertools.tee(self._generate(tau, required), 1)[0]
        return self.options[key].__copy__()  # `copy.copy` would import a module

    def _generate(self, tau: str, required: int):
        groups = self.groups[tau]
        bits = [1 << i for i in range(len(groups))]
        fixed = tuple(i for i, bit in enumerate(bits) if required & bit)
        free = [i for i, bit in enumerate(bits) if not required & bit]
        for r in range(len(free) + 1):
            for extra in itertools.combinations(free, r):
                picked = map(groups.__getitem__, sorted(fixed + extra))
                got = tuple(itertools.chain.from_iterable(picked))
                # the free groups' bits are not in `required`, so adding them ORs them in
                yield required + sum(map(bits.__getitem__, extra)), self.tuples.setdefault(got, got)

    def selections(self, nodes: list[str]):
        """Every monotone choice of groups along `nodes`, a linear extension
        of an upward-closed set: each node picks some of its groups, and
        must pick every group holding a set picked at a node below.

        Yields {node: the picked groups' sets, in group order}, lazily and
        depth first: the first node varies slowest, and each node tries the
        fewest extra groups first.
        """
        f, groups, n = self.f, self.groups, len(nodes)
        index = {tau: {m.uid: i for i, g in enumerate(groups[tau]) for m in g} for tau in nodes}
        # picks only grow upward, so a node's lower covers force all it must
        # pick, and in an upward-closed set they are its covers in the frame;
        # per cover: its position, the mask each of its groups forces here,
        # and a memo from its picked mask to the mask that forces
        covers = [
            [
                (j, tuple(_or(1 << index[tau][m.uid] for m in g) for g in groups[rho]), {})
                for j, rho in enumerate(nodes[:k])
                if tau in f.succ[rho]
            ]
            for k, tau in enumerate(nodes)
        ]
        picks = [0] * n
        chosen: list[tuple[KripkeSet, ...]] = [()] * n
        stack = [self.choices(nodes[0], 0)]
        while stack:
            option = next(stack[-1], None)
            if option is None:
                stack.pop()
                continue
            k = len(stack) - 1
            picks[k], chosen[k] = option
            if k + 1 == n:
                yield dict(zip(nodes, chosen))
                continue
            required = 0
            for j, forced, memo in covers[k + 1]:
                pick = picks[j]
                if pick not in memo:
                    memo[pick] = _or(g for i, g in enumerate(forced) if pick >> i & 1)
                required |= memo[pick]
            stack.append(self.choices(nodes[k + 1], required))


def _or(masks) -> int:
    return functools.reduce(int.__or__, masks, 0)


def monotone_t_families(f: Frame) -> tuple[KripkeSet, ...]:
    """Every monotone selection from the delayed ones, one set per choice,
    each node's extension a union of forced-equality classes: complete for
    any property invariant under forced equality."""
    groups = {tau: t_classes_at(f, tau) for tau in f.nodes}
    selections = _ChoiceTable(f, groups).selections(linear_extension(f))
    # the groups hold only delayed ones, so `subset_of_t`'s member check would always pass
    return tuple(
        KripkeSet(f, f.bottom, ext, f"bfam{k}") for k, ext in enumerate(selections)
    )


def with_zero(x: KripkeSet) -> KripkeSet:
    """Adjoin 0 to a collection of delayed ones, preserving the birth node."""
    f = x.frame
    allowed = _t_uids(f)
    for members in x.ext.values():
        if any(m.uid not in allowed for m in members):
            raise ValueError("with_zero expects a collection of delayed ones")

    def build() -> KripkeSet:
        zero = empty_set(f)
        ext = {tau: (zero,) + x.ext[tau] for tau in x.ext}
        return KripkeSet(f, x.birth, ext, (x.label or f"k{x.uid}") + "+0")

    return _intern(f, ("wz", x.uid), build)


def make_xi(collection: tuple[KripkeSet, ...]) -> KripkeSet:
    """The collection itself together with all of its members."""
    if not collection:
        raise ValueError("make_xi needs at least one set")
    f = collection[0].frame

    def build() -> KripkeSet:
        ext = {}
        for tau in f.nodes:
            # sets compare by identity, so a dict keeps each one's first occurrence
            members = (m for x in collection for m in x.ext[tau])
            ext[tau] = tuple(dict.fromkeys(itertools.chain(collection, members)))
        return KripkeSet(f, f.bottom, ext, "xi")

    return _intern(f, ("xi", tuple(sorted(x.uid for x in collection))), build)


# ------------------------------------------------------------- binary trees


def tree_depth(f: Frame) -> int:
    if not f.kind.startswith("tree("):
        raise ValueError("this operation needs a binary tree frame")
    return max((len(n) for n in f.nodes if n != "e"), default=0) + 1


def _bits_of(node: str) -> str:
    return "" if node == "e" else node


def branch_from_bits(f: Frame, bits: str) -> KripkeSet:
    """The canonical branch along a bit path.

    At tau the extension holds the delayed one for every rho that is below
    tau, incomparable with tau, or above tau and following the path bit by
    bit from tau's depth on.
    """
    depth = tree_depth(f)
    if len(bits) != depth - 1 or any(b not in "01" for b in bits):
        raise ValueError(f"need a bit string of length {depth - 1}")

    def build() -> KripkeSet:
        ext = {}
        for tau in f.nodes:
            bt = _bits_of(tau)
            members = []
            for rho in f.nodes:
                br = _bits_of(rho)
                if not leq(f, tau, rho) or all(
                    br[j] == bits[j] for j in range(len(bt), len(br))
                ):
                    members.append(one_sigma(f, rho))
            ext[tau] = tuple(members)
        return KripkeSet(f, f.bottom, ext, f"branch_{bits}")

    return _intern(f, ("branch", bits), build)


@functools.cache
def branch_formula() -> Formula:
    """Internal branch-hood of #B inside the collection #Q:
    membership in #B is closed upward under inclusion within #Q, #B is a
    chain under inclusion, and #B swallows everything in #Q comparable with
    all of it.  The subset requirement is stated explicitly."""
    c0 = "forall m in #B . m in #Q"
    c1 = "forall a in #Q . forall b in #B . ((forall z in b . z in a) -> a in #B)"
    c2 = (
        "forall a in #B . forall b in #B . "
        "((forall z in a . z in b) \\/ (forall z in b . z in a))"
    )
    c3 = (
        "forall c in #Q . ((forall b in #B . "
        "((forall z in c . z in b) \\/ (forall z in b . z in c))) -> c in #B)"
    )
    return parse(f"({c0}) /\\ ({c1}) /\\ ({c2}) /\\ ({c3})")


def is_branch(s: Structure, sigma: str, b: KripkeSet, q: KripkeSet) -> bool:
    return forces(s, sigma, branch_formula(), extra_names={"B": b, "Q": q})


def externalize(f: Frame, b: KripkeSet, tau: str) -> tuple[str, ...]:
    """The nodes rho >= tau whose delayed one is forced into b at tau."""
    return tuple(
        rho for rho in up_set(f, tau) if forced_member(f, tau, one_sigma(f, rho), b)
    )


# ------------------------------------------------------ two-rooted forests


def forest_copies(f: Frame) -> int:
    if not f.kind.startswith("forest("):
        raise ValueError("this operation needs a forest frame")
    return max(int(n.split(":")[0]) for n in f.nodes if ":" in n)


def subtree_nodes(f: Frame, copy: int) -> tuple[str, ...]:
    return tuple(n for n in f.nodes if n.startswith(f"{copy}:"))


def p_hat_sub(f: Frame, copy: int) -> KripkeSet:
    """The constant collection holding the bottom delayed one together with
    the delayed ones of a single subtree.

    Away from that subtree every member collapses to 1; inside it the
    collection looks like the full one for the subtree.
    """
    if copy < 1 or copy > forest_copies(f):
        raise ValueError(f"no subtree {copy}")

    def build() -> KripkeSet:
        members = (one_sigma(f, f.bottom),) + tuple(
            one_sigma(f, tau) for tau in subtree_nodes(f, copy)
        )
        return KripkeSet(f, f.bottom, {t: members for t in f.nodes}, f"phat_{copy}")

    return _intern(f, ("phat_sub", copy), build)


def alpha_sub(f: Frame, copy: int) -> KripkeSet:
    """The subtree collection together with the numerals below copy+1."""
    def build() -> KripkeSet:
        members = p_hat_sub(f, copy).ext[f.bottom] + tuple(
            internal_nat(f, j) for j in range(copy + 1)
        )
        return KripkeSet(f, f.bottom, {t: members for t in f.nodes}, f"alpha_{copy}")

    return _intern(f, ("alpha_sub", copy), build)


def alpha_forest(f: Frame, k: int = 3) -> KripkeSet:
    """The staging ordinal for the definability claim over a forest: all
    delayed ones, the numerals below k, and for each subtree its zero-added
    collection and its staged ordinal."""
    c = forest_copies(f)
    if k != c + 1:
        raise ValueError("the numeral bound must exceed the subtree count by one")

    def build() -> KripkeSet:
        members = (
            t_family(f)
            + tuple(internal_nat(f, j) for j in range(k))
            + tuple(with_zero(p_hat_sub(f, n)) for n in range(1, c + 1))
            + tuple(alpha_sub(f, n) for n in range(1, c + 1))
        )
        ext = tuple(dict.fromkeys(members))
        return KripkeSet(f, f.bottom, {t: ext for t in f.nodes}, "alpha")

    return _intern(f, ("alpha_forest", k), build)


@functools.cache
def phi_xy() -> Formula:
    """Pins y as the stage at which x enters: x is a nonzero numeral below
    #nats, y is a nonzero subset of #one, some set collects x with y, and any
    set collecting the successor of x with y forces y to be #one."""
    succ = (
        "x in s /\\ (forall w in s . (w in x \\/ w = x)) /\\ (forall w in x . w in s)"
    )
    c1 = "~(x = #zero) /\\ x in #nats"
    c2 = "~(y = #zero) /\\ (forall w in y . w in #one)"
    c3 = "exists z . (x in z /\\ y in z)"
    c4 = f"forall z . (((exists s in z . ({succ})) /\\ y in z) -> y = #one)"
    return parse(f"({c1}) /\\ ({c2}) /\\ ({c3}) /\\ ({c4})")
