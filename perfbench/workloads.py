"""Seeded job generation for the three benchmark workloads.

A job is one user-visible unit of work: one or more `lsdioph` argv lists run
back to back (a game job is `game run` followed by `certify` on the
transcript it wrote), plus the data its output checks need.  Jobs come in
rounds with a fixed number of each kind, shuffled; round r of
seed s is drawn from its own generator, so the job list is a pure function
of (workload, seed) and every round has fresh inputs.

Kind weights are chosen so that the p50 and p90 of a run each fall inside
one kind instead of on the boundary between two (see NOTES.md).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from gf2 import gf2_gcd, gf2_quotients

# game run --out target, relative to the checkout root (the runner's cwd)
TRANSCRIPT = ".perfbench_tmp/transcript.jsonl"


@dataclass(frozen=True)
class Job:
    kind: str
    check: str  # name of the checker in checks.CHECKS
    steps: tuple  # tuple of argv tuples, run in order
    expect: dict  # data the checker compares the output with


# --- text builders (the program sees only these strings) -------------------


def _term(c: int, e: int) -> str:
    if e == 0:
        return str(c)
    mono = "X" if e == 1 else f"X^{e}"
    return mono if c == 1 else f"{c}*{mono}"


def series_text(coeffs: dict) -> str:
    """Exponent -> F_p coefficient map, highest exponent first."""
    terms = [_term(c, e) for e, c in sorted(coeffs.items(), reverse=True) if c]
    return " + ".join(terms) if terms else "0"


def gf2_text(a: int) -> str:
    return series_text({e: 1 for e in range(a.bit_length()) if (a >> e) & 1})


def gf2_series_text(bits: int, depth: int) -> str:
    """The series bits / X^depth: bit depth-e of `bits` is the X^-e coefficient."""
    return series_text({e - depth: 1 for e in range(depth) if (bits >> e) & 1})


def _random_series(rng, p: int, depth: int) -> dict:
    return {-e: rng.randrange(p) for e in range(1, depth + 1)}


# --- game-certify -------------------------------------------------------------


def _game(field_: str, k: int, m: int, n: int, white: str, game_cap: int, cert_cap: int,
          precision: int = 30):
    def make(rng, kind):
        seed = str(rng.randrange(1, 10**6))
        run = (
            "game", "run", "--field", field_, "--m", str(m), "--n", str(n),
            "--white", white, "--black", "black-random", "--alpha", "1/4",
            "--beta", "1/2", "--rounds", "24", "--seed", seed,
            "--cap", str(game_cap), "--out", TRANSCRIPT, "--no-timestamp",
        )
        certify = ("certify", "--transcript", TRANSCRIPT, "--cap", str(cert_cap),
                   "--precision", str(precision), "--no-timestamp")
        expect = {"k": k, "m": m, "n": n, "R": 2, "cap": cert_cap, "rounds": 24}
        return Job(kind, "game", (run, certify), expect)

    return make


# --- search -------------------------------------------------------------------


def _badness_rational(d: int):
    def make(rng, kind):
        den = (1 << d) | rng.getrandbits(d)
        while True:
            num = rng.getrandbits(d)
            if num and gf2_gcd(num, den) == 1:
                break
        argv = ("badness", "--field", "2", "--matrix", gf2_text(num), "--den",
                gf2_text(den), "--cap", str(d - 1), "--no-timestamp")
        quotients = gf2_quotients(num, den)
        expect = {"K_exp": -max(q.bit_length() - 1 for q in quotients[1:]), "cap": d - 1,
                  "num": num, "den": den}
        return Job(kind, "badness_rational", (argv,), expect)

    return make


def _series_pair(rng, depth):
    # bit 0 is kept set so X^-depth is present and the entry is not shorter
    return [rng.getrandbits(depth) | 1 for _ in range(2)]


def _badness_series(rng, kind):
    depth = rng.randint(16, 20)
    bits = _series_pair(rng, depth)
    matrix = "; ".join(gf2_series_text(b, depth) for b in bits)
    argv = ("badness", "--field", "2", "--matrix", matrix, "--cap", "4", "--no-timestamp")
    return Job(kind, "badness_series", (argv,), {"bits": bits, "depth": depth, "cap": 4})


def _dirichlet(rng, kind):
    depth = rng.randint(16, 20)
    bits = _series_pair(rng, depth)
    matrix = "; ".join(gf2_series_text(b, depth) for b in bits)
    argv = ("dirichlet", "--field", "2", "--matrix", matrix, "--t", "4", "--no-timestamp")
    # c0 = 1 for m >= n: the pigeonhole margin ceil((t+1)m/n) - ceil(tm/n) >= 1
    expect = {"bits": bits, "depth": depth, "t": 4, "m": 2, "n": 1, "c0": 1}
    return Job(kind, "dirichlet", (argv,), expect)


def _duality(p: int):
    def make(rng, kind):
        # M = L*T with L unit lower triangular over F_p and T upper triangular
        # with monomial diagonal, so det M != 0 by construction
        d = 5
        T = [[{} for _ in range(d)] for _ in range(d)]
        for i in range(d):
            T[i][i] = {rng.randint(-1, 1): rng.randrange(1, p)}
            for j in range(i + 1, d):
                shape = rng.randrange(3)
                if shape == 1:
                    T[i][j] = {e: rng.randrange(p) for e in (0, 1)}
                elif shape == 2:
                    T[i][j] = _random_series(rng, p, 2)
        L = [[1 if i == j else (rng.randrange(p) if j < i else 0) for j in range(d)]
             for i in range(d)]
        rows = []
        for i in range(d):
            row = []
            for j in range(d):
                acc = {}
                for t in range(d):
                    for e, c in T[t][j].items():
                        acc[e] = (acc.get(e, 0) + L[i][t] * c) % p
                row.append(series_text(acc))
            rows.append(", ".join(row))
        m = rng.choice((2, 3))
        argv = ("duality", "--field", str(p), "--matrix", "; ".join(rows),
                "--m", str(m), "--n", str(d - m), "--no-timestamp")
        return Job(kind, "duality", (argv,), {"m": m, "n": d - m})

    return make


def _cf_rational(rng, kind):
    d = rng.randint(6, 10)
    den = (1 << d) | rng.getrandbits(d)
    num = rng.getrandbits(d) | 1
    argv = ("cf", "--field", "2", "--x", gf2_text(num), "--den", gf2_text(den),
            "--terms", "24", "--no-timestamp")
    return Job(kind, "cf", (argv,), {"quotients": [gf2_text(q) for q in gf2_quotients(num, den)]})


def _cf_series(rng, kind):
    depth = rng.randint(8, 12)
    bits = rng.getrandbits(depth) | 1
    argv = ("cf", "--field", "2", "--x", gf2_series_text(bits, depth), "--terms", "24",
            "--no-timestamp")
    quotients = gf2_quotients(bits, 1 << depth)
    return Job(kind, "cf", (argv,), {"quotients": [gf2_text(q) for q in quotients]})


# --- boxcount -----------------------------------------------------------------


def _boxcount(field_: str, k: int, m: int, n: int, t: int, cap: int, ks, threads: int = 1):
    """`ks` is one K list, or a tuple of K lists to draw one from per job."""

    def make(rng, kind):
        K = rng.choice(ks) if isinstance(ks[0], tuple) else ks
        argv = ["dim", "boxcount", "--field", field_, "--m", str(m), "--n", str(n),
                "--t", str(t), "--cap", str(cap),
                # '=' form: argparse reads a separate '-10,-7' as an option
                "--K-exps=" + ",".join(str(v) for v in K), "--no-timestamp"]
        if threads > 1:
            argv += ["--threads", str(threads)]
        expect = {"k": k, "mn": m * n, "t": t, "K": [str(v) for v in K]}
        return Job(kind, "boxcount", (tuple(argv),), expect)

    return make


# (kind, jobs per round, maker)
WORKLOADS = {
    "game-certify": [
        # at --precision 30 about one cap-9 F2 certify in 1,600 exits 3
        # (PrecisionExhausted); 24 rounds pin an F2 point to depth 72
        # about a quarter of these games run in a cheap mode; with 12 of 20
        # jobs and 4 cheaper ones, p50 sits at their 50th percentile, clear
        # of that mode
        ("game-f2-avoid", 12, _game("2", 2, 1, 1, "white-avoid", 5, 9, precision=48)),
        # p90 falls inside this kind, the top 4 of 20 jobs, rather than in
        # the sparse upper tail of the kind above
        ("game-f2-avoid-c10", 4, _game("2", 2, 1, 1, "white-avoid", 5, 10, precision=48)),
        ("game-f2-literal", 1, _game("2", 2, 1, 1, "white-literal", 4, 8, precision=48)),
        ("game-f3-avoid", 1, _game("3", 3, 1, 1, "white-avoid", 3, 5)),
        ("game-f4-avoid", 1, _game("2^2", 4, 1, 1, "white-avoid", 2, 3)),
        ("game-f2-21-avoid", 1, _game("2", 2, 2, 1, "white-avoid", 3, 4)),
    ],
    "search": [
        # deg q = 6, 7, 8 cost about 9, 16 and 28 ms: as many jobs are
        # cheaper than the deg-7 cluster as dearer, so p50 falls in its middle
        ("badness-rational-d7", 6, _badness_rational(7)),
        ("badness-rational-d6", 4, _badness_rational(6)),
        ("badness-rational-d8", 2, _badness_rational(8)),
        ("badness-series-21", 2, _badness_series),
        # p90 falls inside this kind: the top 5 of 32 jobs
        ("dirichlet-21", 5, _dirichlet),
        ("duality-f2", 2, _duality(2)),
        ("duality-f3", 2, _duality(3)),
        ("cf-rational", 5, _cf_rational),
        ("cf-series", 4, _cf_series),
    ],
    "boxcount": [
        ("box-f2-fast", 13, _boxcount("2", 2, 1, 1, 10, 4, tuple((v,) for v in range(-6, -2)))),
        ("box-f3-generic", 1, _boxcount("3", 3, 1, 1, 3, 2, (-2,))),
        ("box-f4-generic-threads", 1, _boxcount("2^2", 4, 1, 1, 3, 1, (-3,), threads=2)),
        ("box-f2-12-generic", 1, _boxcount("2", 2, 1, 2, 3, 2, (-4, -3))),
        ("box-f2-21-generic-threads", 4, _boxcount("2", 2, 2, 1, 2, 1, (-3,), threads=2)),
    ],
}

# A round index no timed run reaches: the warm-up jobs are drawn from it.
WARMUP_ROUND = -1


def round_size(workload: str) -> int:
    return sum(count for _kind, count, _make in WORKLOADS[workload])


def make_round(workload: str, seed: int, index: int) -> list:
    rng = random.Random(f"{workload}:{seed}:{index}")
    jobs = [make(rng, kind) for kind, count, make in WORKLOADS[workload] for _ in range(count)]
    rng.shuffle(jobs)
    return jobs


def make_jobs(workload: str, seed: int, rounds: int) -> list:
    return [job for r in range(rounds) for job in make_round(workload, seed, r)]


def warmup_jobs(workload: str, seed: int) -> list:
    """One job of each kind, from a round the timed loop never uses."""
    first = {}
    for job in make_round(workload, seed, WARMUP_ROUND):
        first.setdefault(job.kind, job)
    return [first[kind] for kind, _count, _make in WORKLOADS[workload]]
