"""The recursive forced-equality check, kept as an oracle for the class
labels in `kripkelab.semantics`.

x and y are forced equal at sigma iff at every tau >= sigma each member of
either extension is forced equal at tau to a member of the other.  The memo
maps (node, smaller uid, larger uid) to the verdict.
"""

from __future__ import annotations


def oracle_equal(f, memo: dict, sigma: str, x, y) -> bool:
    if x.uid == y.uid:
        return True
    key = (sigma, x.uid, y.uid) if x.uid < y.uid else (sigma, y.uid, x.uid)
    hit = memo.get(key)
    if hit is not None:
        return hit
    result = True
    for tau in f.up[sigma]:
        ex, ey = x.ext[tau], y.ext[tau]
        for a in ex:
            if not any(oracle_equal(f, memo, tau, a, b) for b in ey):
                result = False
                break
        if result:
            for b in ey:
                if not any(oracle_equal(f, memo, tau, b, a) for a in ex):
                    result = False
                    break
        if not result:
            break
    memo[key] = result
    return result


def oracle_member(f, memo: dict, sigma: str, x, y) -> bool:
    return any(oracle_equal(f, memo, sigma, x, z) for z in y.ext[sigma])
