"""Output checks for benchmark jobs.

Every check rests on invariants that do not come from lsdioph itself:
closed-form values (the certify K exponent, the witness count), the
benchmark's own GF(2) arithmetic (gf2.py), or laws the output must obey
(box-count monotonicity, the duality identity).  A job whose check raises
CheckFailed counts as failed.
"""

from __future__ import annotations

import hashlib
import json

from gf2 import gf2_deg, gf2_divmod, gf2_frac_exp, gf2_mul, gf2_parse


class CheckFailed(Exception):
    pass


def _require(cond: bool, message: str):
    if not cond:
        raise CheckFailed(message)


def digest(results) -> str:
    """Digest of the `result` payloads of one job, leaving out any `stats`."""
    payload = [{k: v for k, v in r.items() if k != "stats"} for r in results]
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def check_game(expect, results):
    run, cert = results
    _require(run["rounds"] == expect["rounds"], f"game played {run['rounds']} rounds")
    _require(run["forfeit"] is None, f"game forfeited: {run['forfeit']}")
    m, n, R, k, cap = (expect[key] for key in ("m", "n", "R", "k", "cap"))
    d = m + n
    delta_exp = -R * m * d * d
    K_exp = d * delta_exp - R * (n * n + m * n) - 1
    _require(cert["K_exponent"] == K_exp, f"K_exponent {cert['K_exponent']} != {K_exp}")
    _require(cert["cap_exponent"] == cap, f"cap_exponent {cert['cap_exponent']} != {cap}")
    _require(cert["min_margin_exponent"] > 0,
             f"min_margin_exponent {cert['min_margin_exponent']} <= 0")
    want = k ** (m * (cap + 1)) - 1
    _require(cert["witnesses_checked"] == want,
             f"witnesses_checked {cert['witnesses_checked']} != {want}")


def _witness_qs(witness, height_cap):
    qs = [gf2_parse(p) for p in witness["q"]]
    _require(any(qs), "witness q is zero")
    h = max(gf2_deg(q) for q in qs)
    _require(witness["height_exp"] == h, f"witness height_exp {witness['height_exp']} != {h}")
    _require(h <= height_cap, f"witness height {h} above the cap {height_cap}")
    return qs, h


def check_badness_rational(expect, results):
    (res,) = results
    _require(res["K_exp"] == expect["K_exp"], f"K_exp {res['K_exp']} != {expect['K_exp']}")
    w = res["witness"]
    qs, _h = _witness_qs(w, expect["cap"])
    num, den = expect["num"], expect["den"]
    rem = gf2_divmod(gf2_mul(qs[0], num), den)[1]
    dist = None if rem == 0 else gf2_deg(rem) - gf2_deg(den)
    _require(w["dist_exp"] == dist, f"witness dist_exp {w['dist_exp']} != {dist}")
    _require(w["score_exp"] == res["K_exp"], "witness score is not K")


def _score(qs, bits, depth):
    dist = gf2_frac_exp(qs, bits, depth)
    h = max(gf2_deg(q) for q in qs)
    return None if dist is None else len(qs) * h + dist  # n = 1


def check_badness_series(expect, results):
    """(m, n) = (2, 1): recompute the minimum over every q by brute force."""
    (res,) = results
    bits, depth, cap = expect["bits"], expect["depth"], expect["cap"]
    w = res["witness"]
    qs, _h = _witness_qs(w, cap)
    _require(w["score_exp"] == _score(qs, bits, depth), "witness score does not recompute")
    size = 1 << (cap + 1)
    scores = (_score((q1, q2), bits, depth) for q1 in range(size) for q2 in range(size)
              if q1 or q2)
    # a None score is the zero magnitude, below every k-power
    best = min(scores, key=lambda s: float("-inf") if s is None else s)
    _require(res["K_exp"] == best, f"K_exp {res['K_exp']} != brute-force {best}")


def check_dirichlet(expect, results):
    (res,) = results
    t, m, n = expect["t"], expect["m"], expect["n"]
    w = res["witness"]
    qs, _h = _witness_qs(w, t)
    dist = gf2_frac_exp(qs, expect["bits"], expect["depth"])
    _require(w["dist_exp"] == dist, f"witness dist_exp {w['dist_exp']} != {dist}")
    c0 = expect["c0"]
    _require(res["c0"] == c0, f"c0 {res['c0']} != {c0}")
    bound = -(-(t * m) // n) - c0
    _require(dist is None or dist <= bound, f"dist k^{dist} above the Dirichlet bound k^{bound}")


def check_duality(expect, results):
    (res,) = results
    m, n = expect["m"], expect["n"]
    d = m + n
    lam, sig = res["lambdas"], res["sigmas"]
    _require(len(lam) == d and len(sig) == d, "wrong number of minima")
    _require(res["lambda_m_sigma_n1_exp"] == 0,
             f"duality exponent {res['lambda_m_sigma_n1_exp']} != 0")
    _require(lam[m - 1] + sig[n] == 0, "lambda_m * sigma_(n+1) != 1")
    pairs = [lam[j] + sig[d - 1 - j] for j in range(d)]
    _require(res["pair_product_exps"] == pairs, "pair products do not add up")
    _require(lam == sorted(lam) and sig == sorted(sig), "minima not increasing")


def check_cf(expect, results):
    (res,) = results
    _require(res["quotients"] == expect["quotients"],
             f"quotients {res['quotients']} != {expect['quotients']}")
    _require(res["exact"] is True, "expansion of an exact input not marked exact")
    degs = [gf2_deg(gf2_parse(a)) for a in expect["quotients"][1:]]
    _require(res["max_partial_degree"] == max(degs, default=0), "max_partial_degree")


def check_boxcount(expect, results):
    (res,) = results
    k, mn, t, Ks = expect["k"], expect["mn"], expect["t"], expect["K"]
    rows = res["rows"]
    _require(len(rows) == t * len(Ks), f"{len(rows)} rows for {len(Ks)} K values")
    for i, K in enumerate(Ks):
        block = rows[i * t : (i + 1) * t]
        prev = None
        for r, row in enumerate(block, start=1):
            _require(row["K_exp"] == K and row["resolution"] == r, "row order")
            _require(row["cells_total"] == k ** (r * mn), "cells_total")
            s = row["cells_surviving"]
            _require(0 <= s <= row["cells_total"], "cells_surviving out of range")
            if prev is not None:
                _require(prev <= s <= k**mn * prev,
                         f"S({r - 1}) = {prev}, S({r}) = {s} breaks S(r) <= S(r+1) <= k^mn S(r)")
            prev = s


CHECKS = {
    "game": check_game,
    "badness_rational": check_badness_rational,
    "badness_series": check_badness_series,
    "dirichlet": check_dirichlet,
    "duality": check_duality,
    "cf": check_cf,
    "boxcount": check_boxcount,
}
