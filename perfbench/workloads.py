"""The four workloads: seeded inputs, the ops that run on them, and the
check each op's output must pass.

Every workload is a fixed list of ops (a *round*) that the harness repeats.
The seed changes the numbers inside the inputs (pdf parameters, matrix
entries, permutations, gains, Monte Carlo seeds) but never the shape of the
work: sample counts, cycle counts, matrix sizes and the mix of routes are
fixed per op position, so two seeds cost about the same and a run's figures
do not depend on which seed a run was given.

Ops call the public entry points in-process: ``axdesign.cli.main`` for CLI
work, ``axdesign.coupling.classify`` for large matrices. Both are looked up
at call time, so the tracer's wrappers see them.
"""

from __future__ import annotations

import copy
import io
import json
import math
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

import axdesign.cli
import axdesign.coupling

from . import WORKLOADS, oracles
from .oracles import as_float

__all__ = ["WORKLOADS", "Op", "CliRun", "Mismatch", "build"]


class Mismatch(Exception):
    """An op's output failed its check."""


def need(condition: bool, message: str) -> None:
    if not condition:
        raise Mismatch(message)


def no_finding(finding: str | None) -> None:
    if finding is not None:
        raise Mismatch(finding)


@dataclass
class Op:
    label: str
    call: Callable[[], Any]  # the timed program call
    check: Callable[[Any], None]  # raises Mismatch on a wrong output
    collect: Callable[[Any], Any] | None = None  # untimed: reads files the call wrote
    rows: int = 0  # Monte Carlo FR sample rows the op scores
    cycles: int = 0  # tank cycles the op simulates


@dataclass
class CliRun:
    code: int
    stdout: str
    stderr: str
    csv: str | None = None


def _cli(argv: list[str]) -> CliRun:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = axdesign.cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return CliRun(code, out.getvalue(), err.getvalue())


def cli_op(label, argv, check, csv_path: Path | None = None, **sizes) -> Op:
    argv = [str(a) for a in argv]
    collect = None
    if csv_path is not None:
        def collect(run: CliRun) -> CliRun:
            # Removed after reading, so a round that fails to write it cannot
            # pass on the previous round's file.
            if csv_path.exists():
                run.csv = csv_path.read_text(encoding="utf-8")
                csv_path.unlink()
            return run
    return Op(label, lambda: _cli(argv), check, collect, **sizes)


def _doc(run: CliRun, code: int = 0) -> dict:
    need(run.code == code, f"exit code {run.code}, expected {code}: {run.stderr.strip()[:200]}")
    return json.loads(run.stdout)


def _text(run: CliRun, code: int, *snippets: str) -> None:
    need(run.code == code, f"exit code {run.code}, expected {code}")
    for snippet in snippets:
        need(snippet in run.stdout, f"text report lacks {snippet!r}")


def _round(x: float, digits: int = 6) -> float:
    return round(float(x), digits)


def _write_spec(path: Path, spec: dict) -> Path:
    path.write_text(json.dumps(spec, indent=1), encoding="utf-8")
    return path


def _bands(spec: dict) -> list[tuple[float, float]]:
    """Each FR's design range, computed as the program computes it."""
    return [(fr["nominal"] - fr["tol_minus"], fr["nominal"] + fr["tol_plus"])
            for fr in spec["frs"]]


# ---------------------------------------------------------------------------
# Linear design specs


FAMILIES = ("uniform", "normal", "triangular", "empirical")


def _pdf(family: str, rng) -> dict:
    if family == "normal":
        return {"kind": "normal", "mu": _round(rng.uniform(-1, 1)),
                "sigma": _round(rng.uniform(0.2, 1.0))}
    if family == "uniform":
        centre, half = rng.uniform(-1, 1), rng.uniform(0.3, 1.5)
        return {"kind": "uniform", "lo": _round(centre - half), "hi": _round(centre + half)}
    if family == "triangular":
        lo, hi = rng.uniform(-2.0, -0.5), rng.uniform(0.5, 2.0)
        return {"kind": "triangular", "lo": _round(lo), "mode": _round(rng.uniform(lo, hi)),
                "hi": _round(hi)}
    samples = rng.gamma(2.0, 0.4, 64) - 0.8
    return {"kind": "empirical", "samples": [_round(v) for v in samples]}


def _moments(pdf: dict) -> tuple[float, float]:
    kind = pdf["kind"]
    if kind == "normal":
        return pdf["mu"], pdf["sigma"] ** 2
    if kind == "uniform":
        return (pdf["lo"] + pdf["hi"]) / 2, (pdf["hi"] - pdf["lo"]) ** 2 / 12
    if kind == "triangular":
        a, c, b = pdf["lo"], pdf["mode"], pdf["hi"]
        return (a + b + c) / 3, (a * a + b * b + c * c - a * b - a * c - b * c) / 18
    samples = np.asarray(pdf["samples"])
    return float(samples.mean()), float(samples.var())


def _signed(rng, lo: float, hi: float, size=None):
    return np.round(rng.uniform(lo, hi, size) * rng.choice([-1.0, 1.0], size), 4)


def _lower_triangular(m: int, rng) -> np.ndarray:
    """Unit-scale diagonal plus random strictly-lower entries (at least one)."""
    mat = np.diag(_signed(rng, 0.6, 1.4, m))
    for i in range(1, m):
        for j in range(i):
            if rng.random() < 0.5:
                mat[i, j] = _signed(rng, 0.15, 0.7)
    if m >= 2 and not np.tril(mat, -1).any():
        mat[1, 0] = 0.4
    return mat


def design_matrix(structure: str, m: int, rng) -> np.ndarray:
    """Row- and column-permuted matrix whose class is known by construction.

    ``decoupled``: triangular with an off-diagonal entry. ``coupled``: the
    same plus entries (0, m-1) and (m-1, 0), a 2-cycle between two pairs.
    ``uncoupled``: diagonal. ``singular``: FRs 0 and 1 both depend on DP 0
    only, so no perfect matching exists. ``nonsquare``: m x (m+1) dense.
    """
    if structure == "nonsquare":
        mat = _signed(rng, 0.2, 1.5, (m, m + 1))
    elif structure == "uncoupled":
        mat = np.diag(_signed(rng, 0.6, 1.4, m))
    else:
        mat = _lower_triangular(m, rng)
        if structure == "coupled":
            mat[0, m - 1] = _signed(rng, 0.15, 0.5)
            if mat[m - 1, 0] == 0.0:
                mat[m - 1, 0] = _signed(rng, 0.15, 0.5)
        elif structure == "singular":
            mat[0, :] = 0.0
            mat[1, :] = 0.0
            mat[0, 0], mat[1, 0] = 1.0, -0.7
    return mat[rng.permutation(mat.shape[0])][:, rng.permutation(mat.shape[1])]


@dataclass
class LinearDesign:
    """A generated linear spec plus what the checks need to know about it."""

    spec: dict
    matrix: np.ndarray
    dp_pdfs: list[dict]
    noise_pdfs: list[dict] | None
    structure: str

    @property
    def fr_ids(self) -> list[str]:
        return [fr["id"] for fr in self.spec["frs"]]

    @property
    def dp_ids(self) -> list[str]:
        return [dp["id"] for dp in self.spec["dps"]]

    @property
    def bands(self) -> list[tuple[float, float]]:
        return _bands(self.spec)

    @property
    def all_normal(self) -> bool:
        pdfs = self.dp_pdfs + (self.noise_pdfs or [])
        return all(p["kind"] == "normal" for p in pdfs)

    def fr_moments(self) -> tuple[np.ndarray, np.ndarray]:
        """Mean vector and covariance matrix of the FR vector."""
        mean_dp, var_dp = map(np.array, zip(*(_moments(p) for p in self.dp_pdfs)))
        mean = self.matrix @ mean_dp
        cov = self.matrix @ np.diag(var_dp) @ self.matrix.T
        if self.noise_pdfs is not None:
            mean_n, var_n = map(np.array, zip(*(_moments(p) for p in self.noise_pdfs)))
            mean = mean + mean_n
            cov = cov + np.diag(var_n)
        return mean, cov


def linear_design(structure: str, m: int, families, rng, noise: bool = False,
                  system_pdfs: bool = False) -> LinearDesign:
    """Spec with bands about two standard deviations wide around each FR's
    mean, so every FR and the system have moderate probabilities."""
    matrix = design_matrix(structure, m, rng)
    n_dps = matrix.shape[1]
    dp_pdfs = [_pdf(families[j % len(families)], rng) for j in range(n_dps)]
    noise_pdfs = None
    if noise:
        noise_pdfs = [{"kind": "normal", "mu": 0.0, "sigma": _round(rng.uniform(0.05, 0.3))}
                      for _ in range(m)]
    design = LinearDesign({}, matrix, dp_pdfs, noise_pdfs, structure)
    mean, cov = design.fr_moments()
    sd = np.sqrt(np.diag(cov))
    frs = [{"id": f"fr{i + 1}",
            "nominal": _round(mean[i] + sd[i] * rng.uniform(-0.2, 0.2)),
            "tol_minus": _round(sd[i] * rng.uniform(1.8, 2.6)),
            "tol_plus": _round(sd[i] * rng.uniform(1.8, 2.6))} for i in range(m)]
    dps = [{"id": f"dp{j + 1}", "nominal": _round(_moments(p)[0]), "uncertainty": p}
           for j, p in enumerate(dp_pdfs)]
    spec = {"frs": frs, "dps": dps, "matrix": matrix.tolist()}
    if noise_pdfs is not None:
        spec["noise_pdfs"] = {fr["id"]: p for fr, p in zip(frs, noise_pdfs)}
    if system_pdfs:
        spec["system_pdfs"] = {
            fr["id"]: {"kind": "normal", "mu": _round(mean[i]), "sigma": _round(sd[i])}
            for i, fr in enumerate(frs)}
    design.spec = spec
    return design


def classification_from_doc(cls: dict, fr_ids, dp_ids) -> tuple[str, Any]:
    """A report's classification block as (kind, index pairs or blocks)."""
    def pair(p):
        return fr_ids.index(p[0]), dp_ids.index(p[1])
    if cls["sequence"] is not None:
        return cls["class"], [pair(p) for p in cls["sequence"]]
    if cls["blocks"] is not None:
        return cls["class"], [[pair(p) for p in block] for block in cls["blocks"]]
    return cls["class"], cls["reason"]


def classification_from_result(result) -> tuple[str, Any]:
    """An ``axdesign.coupling`` result as (kind, index pairs or blocks)."""
    payload = {"uncoupled": "pairs", "decoupled": "order", "coupled": "blocks",
               "degenerate": "reason"}[result.kind]
    value = getattr(result, payload)
    return result.kind, value.value if payload == "reason" else value


def _check_class_block(doc: dict, design: LinearDesign) -> None:
    expected = {"singular": "degenerate", "nonsquare": "degenerate"}.get(
        design.structure, design.structure)
    got = classification_from_doc(doc["classification"], design.fr_ids, design.dp_ids)
    no_finding(oracles.check_classification(
        oracles.pattern_of(design.matrix), got, expected))
    if expected == "degenerate":
        reason = "non_square" if design.structure == "nonsquare" else "no_perfect_matching"
        need(got[1] == reason, f"degenerate reason {got[1]}, expected {reason}")


def _check_info_totals(info: dict, n: int | None, seed: int | None) -> None:
    p = info["system_probability"]
    need(0.0 <= p <= 1.0, f"system probability {p} outside [0, 1]")
    bits = as_float(info["system_bits"])
    expected_bits = math.inf if p == 0.0 else -math.log2(p)
    need(math.isclose(bits, expected_bits, rel_tol=1e-9, abs_tol=1e-9),
         f"system bits {bits} do not match probability {p}")
    if n is not None:
        need(info["mc"] is not None and info["mc"]["n_samples"] == n
             and info["mc"]["seed"] == seed, "mc block does not echo seed and samples")


def _check_analytic(info: dict, system_pdfs: dict, bands: dict) -> None:
    need(info["method"] == "analytic", f"method {info['method']}, expected analytic")
    product = 1.0
    for row in info["per_fr"]:
        lo, hi = bands[row["fr"]]
        exact = min(max(oracles.interval_probability(system_pdfs[row["fr"]], lo, hi), 0.0), 1.0)
        need(math.isclose(row["probability"], exact, rel_tol=1e-9, abs_tol=1e-12),
             f"{row['fr']}: probability {row['probability']} vs exact {exact}")
        product *= row["probability"]
    need(math.isclose(info["system_probability"], product, rel_tol=1e-12, abs_tol=0.0),
         "system probability is not the product of per-FR probabilities")


def check_linear_mc(doc: dict, design: LinearDesign, n: int, seed: int,
                    joint_probability: Callable[[], float] | None) -> None:
    """Monte Carlo info report on a generated linear design.

    Decoupled designs run the chain: its system probability must equal the
    joint route's for the same seed (the link product telescopes to the
    joint count), and its first link is the marginal of an FR driven by one
    DP, known in closed form. All-Normal designs must match the
    multivariate-normal rectangle probability; joint reports' per-FR rows
    must match the exact Normal marginals.
    """
    _check_class_block(doc, design)
    info = doc["info"]
    method = "chain" if design.structure == "decoupled" else "joint"
    need(info["method"] == method, f"method {info['method']}, expected {method}")
    _check_info_totals(info, n, seed)
    bands = design.bands
    if method == "chain":
        order = [design.fr_ids.index(f) for f in info["order"]]
        seq = [design.fr_ids.index(p[0]) for p in doc["classification"]["sequence"]]
        need(order == seq, "chain order is not the adjustment sequence")
        if joint_probability is not None:
            joint = joint_probability()
            need(joint == info["system_probability"],
                 f"chain system probability {info['system_probability']} != joint {joint}")
        root = order[0]
        (dp,) = np.flatnonzero(design.matrix[root])
        exact = oracles.scaled_interval_probability(
            design.dp_pdfs[dp], design.matrix[root, dp], *bands[root])
        no_finding(oracles.check_bits(info["per_fr"][0]["bits"], exact, n, "first chain link"))
    if design.all_normal:
        mean, cov = design.fr_moments()
        lo, hi = zip(*bands)
        exact = oracles.normal_box_probability(mean, cov, lo, hi)
        no_finding(oracles.check_bits(info["system_bits"], exact, n, "system"))
        if method == "joint":
            sd = np.sqrt(np.diag(cov))
            for i, row in enumerate(info["per_fr"]):
                p = oracles.interval_probability(
                    {"kind": "normal", "mu": mean[i], "sigma": sd[i]}, *bands[i])
                no_finding(oracles.check_bits(row["bits"], p, n, row["fr"]))


# ---------------------------------------------------------------------------
# mc-info


# (structure, DP families, FR count). Mixed-family designs are decoupled so
# that the chain = joint identity checks them; all-Normal designs of both
# kinds are checked against the exact Gaussian probability.
MC_OPS = (
    ("decoupled", FAMILIES, 4), ("coupled", ("normal",), 3),
    ("decoupled", ("normal",), 5), ("decoupled", FAMILIES, 6),
    ("coupled", ("normal",), 7), ("decoupled", ("normal",), 8),
    ("decoupled", FAMILIES, 9), ("coupled", ("normal",), 10),
    ("decoupled", ("normal",), 11), ("decoupled", FAMILIES, 12),
    ("coupled", ("normal",), 12), ("decoupled", FAMILIES, 3),
)
MC_VALUES_PER_OP = 600_000  # samples x FRs: 2e5 samples at 3 FRs, 5e4 at 12


def mc_samples(m: int, smoke: bool) -> int:
    n = MC_VALUES_PER_OP // m // 1000 * 1000
    return n // 40 if smoke else n


def build_mc_info(seed: int, work: Path, root: Path, smoke: bool) -> list[Op]:
    rng = np.random.default_rng([seed, 1])
    ops = []
    for k, (structure, families, m) in enumerate(MC_OPS):
        rotated = families[k % len(families):] + families[:k % len(families)]
        design = linear_design(structure, m, rotated, rng, noise=structure == "coupled")
        path = _write_spec(work / f"mc{k:02d}.json", design.spec)
        n, mc_seed = mc_samples(m, smoke), int(rng.integers(0, 2**31))
        argv = ["info", path, "--seed", mc_seed, "--samples", n]

        def check(run, design=design, n=n, mc_seed=mc_seed, argv=argv):
            joint = None
            if design.structure == "decoupled":
                def joint():
                    rerun = _cli([str(a) for a in argv] + ["--method", "joint"])
                    return _doc(rerun)["info"]["system_probability"]
            check_linear_mc(_doc(run), design, n, mc_seed, joint)

        ops.append(cli_op(f"info {structure} m={m} n={n}", argv, check, rows=n))
    return ops


# ---------------------------------------------------------------------------
# tank-sim


TANK_VARIANTS = 6  # variant 0 is noiseless and uncoupled
TANK_CYCLES = 300
TANK_GAIN_MAX = 0.2
TANK_COLUMNS = ["level", "temperature", "mix_duration"]


def tank_variants(base: dict, seed: int, n_variants: int) -> list[dict]:
    """Variants of a tank spec. Gains on all three coupling channels span
    [0, TANK_GAIN_MAX] in a Latin-hypercube layout, so every seed covers
    the whole range; the four noise channels' widths are scaled by 0.5-1.5."""
    rng = np.random.default_rng([seed, 2])
    noisy = n_variants - 1
    strata = {ch: rng.permutation(noisy) for ch in ("mixer_to_temp", "heater_to_level",
                                                    "mixer_to_level")}
    variants = []
    for k in range(n_variants):
        spec = copy.deepcopy(base)
        scenario = spec["scenario"]
        if k == 0:
            scenario.pop("sensor_noise", None)
            scenario.pop("coupling_gains", None)
        else:
            scenario["coupling_gains"] = {
                ch: _round(TANK_GAIN_MAX * (strata[ch][k - 1] + rng.random()) / noisy)
                for ch in strata}
            for pdf in scenario["sensor_noise"].values():
                pdf["sigma"] = _round(pdf["sigma"] * rng.uniform(0.5, 1.5))
        variants.append(spec)
    return variants


def check_simulate(run: CliRun, spec: dict, cycles: int, seed: int, noiseless: bool) -> tuple:
    """A ``simulate --out`` run: the report's probabilities must be the exact
    in-band fractions of the CSV it wrote. Returns (per-FR, joint) fractions."""
    doc = _doc(run)
    need(doc["cycles"] == cycles and doc["seed"] == seed, "report does not echo cycles and seed")
    need(run.csv is not None, "no CSV written")
    header, values = oracles.parse_csv(run.csv)
    need(header == TANK_COLUMNS, f"CSV header {header}")
    need(values.shape == (cycles, 3) and np.isfinite(values).all(),
         f"CSV holds {values.shape} values, expected ({cycles}, 3) finite")
    if noiseless:
        need(bool((values == np.array([7.0, 65.0, 120.0])).all()),
             "noiseless uncoupled cycles do not reproduce (7.0, 65.0, 120.0) exactly")
    per, joint = oracles.band_fractions(values, _bands(spec))
    info = doc["info"]
    need([row["probability"] for row in info["per_fr"]] == per,
         "per-FR probabilities are not the CSV's in-band fractions")
    need(info["system_probability"] == joint, "system probability is not the CSV's joint fraction")
    _check_info_totals(info, None, None)
    return per, joint


def build_tank_sim(seed: int, work: Path, root: Path, smoke: bool) -> list[Op]:
    base = json.loads((root / "fixtures" / "tank_turbulent.json").read_text(encoding="utf-8"))
    cycles = 30 if smoke else TANK_CYCLES
    rng = np.random.default_rng([seed, 3])
    ops = []
    for k, spec in enumerate(tank_variants(base, seed, TANK_VARIANTS)):
        path = _write_spec(work / f"tank{k}.json", spec)
        csv_path = work / f"tank{k}.csv"
        sim_seed = int(rng.integers(0, 2**31))
        verified: dict[str, tuple] = {}

        def check_sim(run, spec=spec, sim_seed=sim_seed, k=k, verified=verified):
            verified["fractions"] = check_simulate(run, spec, cycles, sim_seed, k == 0)

        def check_info(run, sim_seed=sim_seed, verified=verified):
            # Same scenario, seed and count: the info route samples exactly
            # the table the paired simulate op wrote.
            doc = _doc(run)
            info = doc["info"]
            need(info["method"] == "joint", f"method {info['method']}, expected joint")
            _check_info_totals(info, cycles, sim_seed)
            need("fractions" in verified, "the paired simulate op has no verified output")
            per, joint = verified["fractions"]
            need([row["probability"] for row in info["per_fr"]] == per
                 and info["system_probability"] == joint,
                 "info over the scenario differs from simulate with the same seed")

        ops.append(cli_op(f"simulate variant {k}",
                          ["simulate", path, "--cycles", cycles, "--seed", sim_seed,
                           "--out", csv_path],
                          check_sim, csv_path=csv_path, cycles=cycles))
        ops.append(cli_op(f"info variant {k}",
                          ["info", path, "--samples", cycles, "--seed", sim_seed],
                          check_info, cycles=cycles))
    return ops


# ---------------------------------------------------------------------------
# classify-scale


# (pattern, n). Dense triangular patterns make today's matcher cubic; rings
# of 1000 pairs or more and the largest sparse pattern exceed Python's
# recursion limit in today's classifier and count as failed ops.
CLASSIFY_OPS = (
    ("dense", 100), ("block", 200), ("sparse", 500), ("ring", 500), ("singular", 200),
    ("dense", 200), ("block", 500), ("sparse", 1000), ("ring", 800), ("singular", 500),
    ("dense", 400), ("block", 1000), ("sparse", 2000), ("ring", 1200), ("singular", 1000),
    ("dense", 750), ("block", 2000), ("ring", 1600), ("singular", 1500),
)


def classify_pattern(kind: str, n: int, rng) -> tuple[np.ndarray, str, set | None]:
    """(row/column-permuted matrix, class, coupled-block FR sets or None).

    * dense: full lower triangle, decoupled.
    * block: dense diagonal blocks of 2-6 pairs, two entries per row into
      earlier blocks; coupled with exactly those blocks.
    * sparse: a staircase path (which admits a perfect matching) plus one
      random entry per row, three nonzeros per row; class and blocks from
      scipy's reference decomposition.
    * ring: diagonal plus a cyclic superdiagonal; one coupled block of all n.
    * singular: n // 4 rows confined to n // 4 - 1 columns; degenerate.
    """
    pattern = np.zeros((n, n), dtype=bool)
    blocks = None
    rows = np.arange(n)
    if kind == "dense":
        pattern = np.tril(np.ones((n, n), dtype=bool))
        expected = "decoupled"
    elif kind == "block":
        sizes = []
        while sum(sizes) < n:
            sizes.append(int(rng.integers(2, 7)))
        sizes[-1] -= sum(sizes) - n
        if sizes[-1] < 2:
            last = sizes.pop()
            sizes[-1] += last
        start, blocks = 0, []
        for size in sizes:
            members = np.arange(start, start + size)
            pattern[start:start + size, start:start + size] = True
            if start:
                for _ in range(2):
                    pattern[members, rng.integers(0, start, size)] = True
            blocks.append(members)
            start += size
        expected = "coupled"
    elif kind == "sparse":
        pattern[rows[:-1], rows[:-1]] = True
        pattern[rows[:-1], rows[1:]] = True
        pattern[n - 1, 0] = True
        pattern[rows, rng.integers(0, n, n)] = True
        expected = None
    elif kind == "ring":
        pattern[rows, rows] = True
        pattern[rows, (rows + 1) % n] = True
        blocks = [rows]
        expected = "coupled"
    elif kind == "singular":
        k = n // 4
        pattern[rows, rows] = True
        pattern[rows, rng.integers(0, n, n)] = True
        pattern[:k, :] = False
        for _ in range(2):
            pattern[rows[:k], rng.integers(0, k - 1, k)] = True
        expected = "degenerate"
    else:
        raise ValueError(f"unknown pattern {kind!r}")
    row_perm, col_perm = rng.permutation(n), rng.permutation(n)
    pattern = pattern[row_perm][:, col_perm]
    if blocks is not None:
        new_row = np.argsort(row_perm)
        blocks = {frozenset(new_row[b].tolist()) for b in blocks}
    if expected is None:
        expected, blocks = oracles.reference_structure(pattern)
    matrix = np.zeros((n, n))
    matrix[pattern] = _signed(rng, 0.5, 1.5, int(pattern.sum()))
    return matrix, expected, blocks


def check_classify(result, matrix: np.ndarray, expected: str, blocks) -> None:
    got = classification_from_result(result)
    no_finding(oracles.check_classification(oracles.pattern_of(matrix), got, expected, blocks))
    if expected == "degenerate":
        need(got[1] == "no_perfect_matching", f"degenerate reason {got[1]}")


def build_classify_scale(seed: int, work: Path, root: Path, smoke: bool) -> list[Op]:
    rng = np.random.default_rng([seed, 4])
    ops = []
    for kind, n in CLASSIFY_OPS:
        n = max(8, n // 25) if smoke else n
        matrix, expected, blocks = classify_pattern(kind, n, rng)

        def call(matrix=matrix):
            return axdesign.coupling.classify(matrix)

        def check(result, matrix=matrix, expected=expected, blocks=blocks):
            check_classify(result, matrix, expected, blocks)

        ops.append(Op(f"classify {kind} n={n}", call, check))
    return ops


# ---------------------------------------------------------------------------
# spec-review


FIXTURE_SAMPLES = 5000
SCENARIO_SAMPLES = 40  # info/simulate on the tank fixtures: one cycle per sample
GEN_SAMPLES = 4000
GEN_SPECS = (("uncoupled", 2), ("decoupled", 3), ("coupled", 4), ("nonsquare", 5),
             ("singular", 6), ("uncoupled", 6), ("decoupled", 2), ("coupled", 3),
             ("nonsquare", 4), ("singular", 5))

# Outcomes stated in fixtures/README.md and the README's exit-code table.
# classify: (exit code, class) or None when the fixture has no matrix.
FIXTURE_CLASSIFY = {
    "tank": (0, "uncoupled"), "tank_turbulent": None,
    "faucet_two_knob": (2, "coupled"), "faucet_mixer_tap": (0, "uncoupled"),
    "machining_cascade": (0, "decoupled"), "scheduling": (3, "degenerate"),
    "rod_cutting": (0, "uncoupled"), "disjoint": (0, "uncoupled"),
    "nonsquare": (3, "degenerate"),
}
FIXTURE_METHOD = {
    "tank": "analytic", "tank_turbulent": "joint", "faucet_two_knob": "joint",
    "faucet_mixer_tap": "analytic", "machining_cascade": "chain",
    "scheduling": "analytic", "rod_cutting": "analytic", "disjoint": "analytic",
    "nonsquare": "joint",
}


def _spec_bands(spec: dict) -> dict[str, tuple[float, float]]:
    return {fr["id"]: band for fr, band in zip(spec["frs"], _bands(spec))}


def check_fixture_info(name: str, spec: dict, doc: dict, n: int, seed: int) -> None:
    info = doc["info"]
    method = FIXTURE_METHOD[name]
    need(info["method"] == method, f"method {info['method']}, expected {method}")
    bands = _spec_bands(spec)
    if method == "analytic":
        _check_analytic(info, spec["system_pdfs"], bands)
    else:
        _check_info_totals(info, n, seed)
    if name == "tank":
        need(info["system_bits"] == 0.0, "tank.json should cost 0 bits")
    elif name == "disjoint":
        need(info["system_bits"] == "inf", 'disjoint.json should report "inf" bits')
    elif name == "tank_turbulent":
        need(as_float(info["system_bits"]) > 0.0, "tank_turbulent.json should cost bits")
    elif name == "rod_cutting":
        bits = {row["fr"]: as_float(row["bits"]) for row in info["per_fr"]}
        need(bits["length_coarse"] == 0.0 and 9.0 < bits["length_precise"] < 11.0,
             "rod_cutting.json: expected ~10 bits precise, 0 bits coarse")
    elif name == "machining_cascade":
        design = LinearDesign(spec, np.array(spec["matrix"]),
                              [dp["uncertainty"] for dp in spec["dps"]], None, "decoupled")
        check_linear_mc(doc, design, n, seed, None)
    elif name == "faucet_two_knob":
        # Each FR is 2h + 2c or 8h - 8c with h, c iid uniform of equal
        # width: exactly the triangular system pdfs the fixture lists.
        for row in info["per_fr"]:
            exact = oracles.interval_probability(spec["system_pdfs"][row["fr"]], *bands[row["fr"]])
            no_finding(oracles.check_bits(row["bits"], exact, n, row["fr"]))
    elif name == "nonsquare":
        need(info["system_probability"] in (0.0, 1.0),
             "a model without uncertainty gives probability 0 or 1")


def _fixture_ops(root: Path, work: Path, rng) -> list[Op]:
    ops = []
    for name, classify in FIXTURE_CLASSIFY.items():
        path = root / "fixtures" / f"{name}.json"
        spec = json.loads(path.read_text(encoding="utf-8"))
        if classify is not None:
            code, kind = classify

            def check_cls(run, spec=spec, code=code, kind=kind, name=name):
                doc = _doc(run, code)
                got = classification_from_doc(doc["classification"],
                                              [f["id"] for f in spec["frs"]],
                                              [d["id"] for d in spec["dps"]])
                no_finding(oracles.check_classification(
                    oracles.pattern_of(spec["matrix"], spec.get("epsilon", 0.0)), got, kind))
                if name == "machining_cascade":
                    need([p[0] for p in doc["classification"]["sequence"]]
                         == ["station1_offset", "station2_offset", "station3_offset"],
                         "machining cascade sequence is not station 1 -> 2 -> 3")

            ops.append(cli_op(f"classify {name} json", ["classify", path], check_cls))
            ops.append(cli_op(f"classify {name} text", ["classify", path, "--format", "text"],
                              lambda run, c=code, k=kind: _text(run, c, f"classification: {k}")))

        def check_valid(run):
            doc = _doc(run)
            need(doc["valid"] is True and doc["issues"] == [], "fixture fails validation")

        ops.append(cli_op(f"validate {name} json", ["validate", path], check_valid))
        ops.append(cli_op(f"validate {name} text", ["validate", path, "--format", "text"],
                          lambda run: _text(run, 0, "spec is valid")))
        scenario = "scenario" in spec
        n = SCENARIO_SAMPLES if scenario else FIXTURE_SAMPLES
        seed = int(rng.integers(0, 2**31))
        argv = ["info", path, "--seed", seed, "--samples", n]
        ops.append(cli_op(f"info {name} json", argv,
                          lambda run, name=name, spec=spec, n=n, seed=seed:
                          check_fixture_info(name, spec, _doc(run), n, seed)))
        ops.append(cli_op(f"info {name} text", argv + ["--format", "text"],
                          lambda run, m=FIXTURE_METHOD[name]: _text(run, 0, f"method: {m}")))
        if name == "faucet_two_knob":
            ops.append(cli_op("info faucet_two_knob analytic", argv + ["--method", "analytic"],
                              lambda run: need(run.code == 4, f"exit code {run.code}, expected 4")))
        if scenario:
            csv_path = work / f"review-{name}.csv"
            ops.append(cli_op(
                f"simulate {name} json",
                ["simulate", path, "--cycles", SCENARIO_SAMPLES, "--seed", seed, "--out", csv_path],
                lambda run, spec=spec, seed=seed: check_simulate(
                    run, spec, SCENARIO_SAMPLES, seed, False),
                csv_path=csv_path))
            ops.append(cli_op(f"simulate {name} text",
                              ["simulate", path, "--cycles", SCENARIO_SAMPLES, "--seed", seed,
                               "--format", "text"],
                              lambda run: _text(run, 0, "method: joint")))
    return ops


def _generated_ops(work: Path, rng) -> list[Op]:
    ops = []
    for k, (structure, m) in enumerate(GEN_SPECS):
        analytic = structure in ("uncoupled", "nonsquare", "singular")
        design = linear_design(structure, m, ("normal",), rng,
                               noise=structure == "coupled", system_pdfs=analytic)
        path = _write_spec(work / f"review{k}.json", design.spec)
        code = {"coupled": 2, "nonsquare": 3, "singular": 3}.get(structure, 0)
        kind = {"nonsquare": "degenerate", "singular": "degenerate"}.get(structure, structure)
        seed = int(rng.integers(0, 2**31))
        argv = ["info", path, "--seed", seed, "--samples", GEN_SAMPLES]
        method = "analytic" if analytic else ("chain" if structure == "decoupled" else "joint")

        def check_info(run, design=design, seed=seed, analytic=analytic):
            doc = _doc(run)
            if analytic:
                _check_class_block(doc, design)
                _check_analytic(doc["info"], design.spec["system_pdfs"],
                                dict(zip(design.fr_ids, design.bands)))
            else:
                check_linear_mc(doc, design, GEN_SAMPLES, seed, None)

        ops += [
            cli_op(f"classify gen{k} json", ["classify", path],
                   lambda run, d=design, c=code: _check_class_block(_doc(run, c), d)),
            cli_op(f"classify gen{k} text", ["classify", path, "--format", "text"],
                   lambda run, c=code, k=kind: _text(run, c, f"classification: {k}")),
            cli_op(f"validate gen{k} json", ["validate", path],
                   lambda run: need(_doc(run)["valid"] is True, "generated spec fails validation")),
            cli_op(f"info gen{k} json", argv, check_info),
            cli_op(f"info gen{k} text", argv + ["--format", "text"],
                   lambda run, m=method: _text(run, 0, f"method: {m}")),
        ]
    return ops


def _error_ops(work: Path, valid_spec: Path) -> list[Op]:
    broken = work / "broken.json"
    broken.write_text('{"frs": [', encoding="utf-8")

    def exit_1(run):
        need(run.code == 1 and run.stdout == "" and run.stderr.strip() != "",
             f"exit code {run.code} with stdout {run.stdout[:80]!r}, expected 1 and a message")

    return [
        cli_op("classify broken spec", ["classify", broken], exit_1),
        cli_op("info zero samples", ["info", valid_spec, "--samples", 0], exit_1),
        cli_op("validate missing file", ["validate", work / "missing.json"], exit_1),
    ]


def build_spec_review(seed: int, work: Path, root: Path, smoke: bool) -> list[Op]:
    rng = np.random.default_rng([seed, 5])
    ops = _fixture_ops(root, work, rng) + _generated_ops(work, rng)
    return ops + _error_ops(work, work / "review0.json")


_BUILDERS = {
    "mc-info": build_mc_info,
    "tank-sim": build_tank_sim,
    "classify-scale": build_classify_scale,
    "spec-review": build_spec_review,
}


def build(name: str, seed: int, work: Path, root: Path, smoke: bool = False) -> list[Op]:
    """The op list of one round of workload ``name``; inputs go to ``work``."""
    return _BUILDERS[name](seed, work, root, smoke)
