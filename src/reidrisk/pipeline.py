"""Dataset handling, synthetic populations, and experiment orchestration.

The experiment runner reproduces the full evaluation loop on synthetic
data: build a population of users with individual behavior chains, release
one obfuscated datum per user under each mechanism and privacy level,
attack the releases with the profile matcher, estimate score-level identity
information, compare everything against the closed-form caps and error
bounds, and measure estimator utility. Every report row carries the config
hash and seed; repeated runs with one seed are byte-identical apart from
the MANIFEST timestamp.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field
from typing import Iterable, Iterator, Optional, Sequence, get_args, get_type_hints

import numpy as np

from . import bounds, estimation, mechanisms, probcore, pse, reid
from .mechanisms import (MAX_BUCKETS, GeneralLocalHash, RandomizedResponse, glh_sample_batch,
                         rr_sample_batch)
from .probcore import (Alphabet, CategoricalDistribution, MarkovSource,
                       PopulationModel, integer_symbols)


class DataError(Exception):
    """Malformed or unusable input data; maps to CLI exit code 2."""


class PipelineError(Exception):
    """A pipeline stage failed; carries the stage name."""

    def __init__(self, stage: str, cause: BaseException):
        super().__init__(f"stage {stage!r} failed: {cause}")
        self.stage = stage
        self.cause = cause


@dataclass(frozen=True)
class TraceDataset:
    """Per-user symbol traces over one alphabet, with provenance.

    Each trace is held as a read-only copy, so the alphabet check made here
    holds for as long as the dataset lives.
    """

    alphabet: Alphabet
    traces: tuple
    provenance: dict = field(default_factory=dict)
    user_labels: Optional[tuple] = None

    def __post_init__(self):
        if not self.traces:
            raise DataError("dataset holds no users")
        cleaned = []
        for i, t in enumerate(self.traces):
            try:
                arr = np.array(integer_symbols(t))
            except ValueError:
                raise DataError(f"user {i} trace holds a non-integer symbol") from None
            if arr.size < 1:
                raise DataError(f"user {i} has an empty trace")
            if arr.min() < 0 or arr.max() >= self.alphabet.size:
                raise DataError(f"user {i} trace leaves the alphabet")
            arr.setflags(write=False)
            cleaned.append(arr)
        object.__setattr__(self, "traces", tuple(cleaned))

    @property
    def n_users(self) -> int:
        return len(self.traces)


def ingest_checkins(path, min_events: int = 10) -> TraceDataset:
    """Load a check-in CSV `user_id,timestamp,poi_id` into per-user traces.

    Events are ordered by timestamp per user (stable on ties, so duplicate
    timestamps keep input order); users with fewer than min_events events
    are dropped and counted in the provenance. Any malformed row, such as
    one with an empty field, or a NaN timestamp, aborts the ingest with its
    line number.
    """
    per_user: dict = {}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["user_id", "timestamp", "poi_id"]:
            raise DataError(f"expected header user_id,timestamp,poi_id, got {header}")
        for lineno, row in enumerate(reader, start=2):
            if len(row) != 3 or not all(row):
                raise DataError(f"malformed row at line {lineno}: {row!r}")
            user, ts, poi = row
            try:
                key = (0, float(ts), "")
            except ValueError:
                key = (1, 0.0, ts)
            if math.isnan(key[1]):
                raise DataError(f"NaN timestamp at line {lineno}")
            per_user.setdefault(user, []).append((key, poi))
    kept = {u: evs for u, evs in per_user.items() if len(evs) >= min_events}
    dropped = len(per_user) - len(kept)
    if not kept:
        raise DataError(f"no user reaches the minimum of {min_events} events")
    users = sorted(kept)
    labels = sorted({poi for evs in kept.values() for _, poi in evs})
    label_ids = {lab: i for i, lab in enumerate(labels)}
    traces = []
    for u in users:
        evs = sorted(kept[u], key=lambda e: e[0])
        traces.append(np.array([label_ids[poi] for _, poi in evs], dtype=np.int64))
    return TraceDataset(alphabet=Alphabet(len(labels), tuple(labels)),
                        traces=tuple(traces),
                        provenance={"source": str(path), "kept_users": len(users),
                                    "dropped_users": dropped, "min_events": min_events},
                        user_labels=tuple(users))


def split_traces(dataset: TraceDataset) -> tuple[TraceDataset, TraceDataset]:
    """Per user: first ceil(L/2) events for training, the rest for evaluation."""
    train, evaln = [], []
    for i, t in enumerate(dataset.traces):
        if t.size < 2:
            raise DataError(f"user {i} trace has length {t.size}; need >= 2 to split")
        cut = (t.size + 1) // 2
        train.append(t[:cut])
        evaln.append(t[cut:])
    prov = dict(dataset.provenance)
    return (TraceDataset(dataset.alphabet, tuple(train), {**prov, "half": "train"},
                         dataset.user_labels),
            TraceDataset(dataset.alphabet, tuple(evaln), {**prov, "half": "eval"},
                         dataset.user_labels))


@dataclass(frozen=True)
class SynthesisSpec:
    """Synthetic population shape.

    Global symbol popularity follows a Zipf law; each user's chain lives on
    its own `support_size` symbols drawn by popularity, with visit and
    transition rows drawn from a Dirichlet centered on the restricted
    popularity (larger `concentration` means users look more alike).
    """

    n_users: int
    size: int
    zipf_exponent: float = 1.0
    concentration: float = 1.0
    support_size: int = 16
    train_len: int = 16
    eval_len: int = 16

    def __post_init__(self):
        if self.n_users < 1 or self.size < 2:
            raise ValueError("need n_users >= 1 and size >= 2")
        if self.zipf_exponent <= 0:
            raise ValueError("Zipf exponent must be positive")
        if self.concentration <= 0:
            raise ValueError("concentration must be positive")
        if not (1 <= self.support_size <= self.size):
            raise ValueError("support_size must lie in [1, size]")
        if self.train_len < 1 or self.eval_len < 1:
            raise ValueError("trace lengths must be >= 1")


def zipf_law(size: int, exponent: float) -> np.ndarray:
    """Popularity vector p(rank) proportional to (rank+1)^(-exponent)."""
    w = (np.arange(1, size + 1, dtype=np.float64)) ** (-exponent)
    return w / w.sum()


def synth_population(spec: SynthesisSpec, rng: np.random.Generator
                     ) -> tuple[PopulationModel, TraceDataset]:
    """Draw the population and one full trace per user, deterministically."""
    n, size, k = spec.n_users, spec.size, spec.support_size
    global_law = zipf_law(size, spec.zipf_exponent)
    log_pop = np.log(global_law)

    # per-user supports: popularity-weighted sampling without replacement
    gumbel = rng.gumbel(size=(n, size))
    supports = np.argpartition(-(log_pop[None, :] + gumbel), k - 1, axis=1)[:, :k]
    supports.sort(axis=1)

    restricted = global_law[supports.ravel()].reshape(n, k)
    restricted /= restricted.sum(axis=1, keepdims=True)
    alpha = spec.concentration * k * restricted

    pis = rng.gamma(np.maximum(alpha, 1e-12))
    trans = rng.gamma(np.maximum(alpha[:, None, :], 1e-12), size=(n, k, k))
    pis_mass = pis.sum(axis=1, keepdims=True)
    trans_mass = trans.sum(axis=2, keepdims=True)
    if not (pis_mass.all() and trans_mass.all()):
        raise ValueError(f"concentration {spec.concentration!r} is too small: a drawn "
                         "visit or transition row has zero mass")
    pis /= pis_mass
    trans /= trans_mass

    total_len = spec.train_len + spec.eval_len
    states = probcore.step_chains(pis, trans, total_len, rng)
    traces = np.take_along_axis(supports, states, axis=1)

    models = tuple(
        MarkovSource(initial=pis[i], transitions=trans[i], trace_len=spec.eval_len,
                     support=supports[i])
        for i in range(n))
    population = PopulationModel(n=n, prior=CategoricalDistribution.uniform(n),
                                 models=models)
    dataset = TraceDataset(alphabet=Alphabet(size),
                           traces=tuple(traces),
                           provenance={"synthesis": asdict(spec)})
    return population, dataset


@dataclass(frozen=True)
class ExperimentConfig:
    """Flat, typed experiment description; serializes to a flat JSON object."""

    schema_version: int = 1
    seed: int = 0
    threads: int = 0
    n_users: int = 200
    size: int = 64
    zipf_exponent: float = 1.0
    concentration: float = 1.0
    support_size: int = 16
    train_len: int = 16
    eval_len: int = 16
    checkins_path: Optional[str] = None
    min_events: int = 10
    epsilons: tuple = (0.1, 1.0, 10.0)
    glh_g: Optional[int] = None
    knowledge: str = "partial"
    reid_trials: int = 500
    pse_trials: int = 500
    pse_k: int = 5
    threshold_level: float = 0.05
    phis: tuple = (20,)
    theta_for_g_sweep: float = 0.5
    g_sweep: tuple = (4, 64, 1024)

    def __post_init__(self):
        if self.schema_version != 1:
            raise ValueError(f"unsupported schema_version {self.schema_version}")
        if self.knowledge not in ("partial", "max"):
            raise ValueError("knowledge must be 'partial' or 'max'")
        if not self.epsilons:
            raise ValueError("need at least one epsilon")
        object.__setattr__(self, "epsilons", tuple(float(e) for e in self.epsilons))
        object.__setattr__(self, "phis", tuple(int(p) for p in self.phis))
        object.__setattr__(self, "g_sweep", tuple(int(g) for g in self.g_sweep))
        if not all(e >= 0 for e in self.epsilons):
            raise ValueError("epsilons must be >= 0")
        if any(p < 1 for p in self.phis):
            raise ValueError("phi values must be >= 1")
        if self.glh_g is not None and not 2 <= self.glh_g <= MAX_BUCKETS:
            raise ValueError(f"glh_g must lie in [2, {MAX_BUCKETS}]")
        if any(not 2 <= g <= MAX_BUCKETS for g in self.g_sweep):
            raise ValueError(f"g_sweep values must lie in [2, {MAX_BUCKETS}]")
        for eps in self.epsilons:  # the bounds stage's bucket count, made now
            _glh_bucket_count(self.glh_g, eps)
        if not 0 < self.threshold_level < 1:
            raise ValueError("threshold_level must lie in (0, 1)")
        if not 0 < self.theta_for_g_sweep < 1:
            raise ValueError("theta_for_g_sweep must lie in (0, 1)")
        self.synthesis_spec()  # the dataset stage's checks, made now
        if self.n_users < 2:
            raise ValueError("n_users must be >= 2: an attack needs impostors")
        if min(self.reid_trials, self.pse_trials, self.pse_k) < 1:
            raise ValueError("reid_trials, pse_trials and pse_k must be >= 1")
        if self.pse_trials <= self.pse_k:
            raise ValueError("pse_trials must exceed pse_k, the neighbour order")

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        """Read a flat JSON object whose keys and value types are this class's fields.

        An Optional[t] field takes t or null, a tuple field a JSON list, and
        a float field also an int.
        """
        with open(path) as fh:
            raw = json.load(fh)
        if not isinstance(raw, dict):
            raise DataError("config must be a flat JSON object")
        hints = get_type_hints(cls)
        unknown = set(raw) - set(hints)
        if unknown:
            raise DataError(f"unknown config keys: {sorted(unknown)}")
        for key, hint in hints.items():
            if key not in raw:
                continue
            value = raw[key]
            want = tuple(list if t is tuple else t for t in get_args(hint) or (hint,))
            if float in want and type(value) is int:
                try:
                    value = raw[key] = float(value)
                except OverflowError:
                    raise DataError(f"config key {key} lies beyond the float range") from None
            # JSON true/false pass isinstance(int), and no key takes a boolean
            if isinstance(value, bool) or not isinstance(value, want) or (
                    isinstance(value, list) and any(isinstance(v, bool) for v in value)):
                raise DataError(f"config key {key} has the wrong type")
        try:
            return cls(**raw)
        except (TypeError, ValueError) as exc:
            raise DataError(f"bad config: {exc}") from exc

    def synthesis_spec(self) -> SynthesisSpec:
        return SynthesisSpec(n_users=self.n_users, size=self.size,
                             zipf_exponent=self.zipf_exponent,
                             concentration=self.concentration,
                             support_size=self.support_size,
                             train_len=self.train_len, eval_len=self.eval_len)

    def to_dict(self) -> dict:
        return asdict(self)

    def config_hash(self) -> str:
        blob = json.dumps(self.to_dict(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:12]


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return f"{v:.12g}"
    return str(v)


def _write_csv(path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow([_fmt(v) for v in row])


def _glh_bucket_count(glh_g: Optional[int], epsilon: float) -> int:
    """The requested bucket count, else the utility-optimal one (at least 2).

    A count above `MAX_BUCKETS` is refused, as is an optimal one e^epsilon + 1
    that overflows float64 (epsilon from about 710, or infinite).
    """
    g = glh_g
    if g is None:
        try:
            g = max(2, int(round(bounds.glh_utility_optimal_g(epsilon))))
        except OverflowError:
            g = math.inf
    if g > MAX_BUCKETS:
        raise ValueError(f"{g} hash buckets (epsilon {epsilon}) exceed the limit {MAX_BUCKETS}")
    return g


def attack_mechanism(name: str, epsilon: float, size: int, glh_g: Optional[int] = None):
    """Mechanism `none`, `rr` or `glh` at epsilon; GLH has glh_g buckets, else the optimal g."""
    if name == "none":
        return None
    if name == "rr":
        return RandomizedResponse(epsilon, size)
    if name == "glh":
        return GeneralLocalHash.with_production_family(
            epsilon, _glh_bucket_count(glh_g, epsilon), size)
    raise ValueError(f"unknown mechanism {name!r}")


@dataclass(frozen=True)
class AttackSetup:
    """What the profile matcher attacks: user u holds probes[u], profile u of the table."""

    size: int
    probes: np.ndarray
    table: reid.ProfileTable


def attack_setup(config: ExperimentConfig, rngs: Iterator[np.random.Generator],
                 run_stage=lambda name, fn: fn()) -> AttackSetup:
    """Dataset, split, the table of knowledge-selected profiles, and the probes.

    The dataset is `checkins_path` when set, else synthetic from the next
    stream of rngs. Each probe is the first evaluation event. The dataset,
    split and profile steps run as `run_stage(name, fn)`.
    """
    def dataset():
        if not config.checkins_path:
            return synth_population(config.synthesis_spec(), next(rngs))[1]
        data = ingest_checkins(config.checkins_path, config.min_events)
        if data.n_users < 2:
            raise DataError(f"{config.checkins_path} keeps one user; "
                            "an attack needs at least 2")
        return data

    data = run_stage("dataset", dataset)
    size = data.alphabet.size
    train_ds, eval_ds = run_stage("split", lambda: split_traces(data))
    source = eval_ds if config.knowledge == "max" else train_ds
    table = run_stage("profiles", lambda: reid.ProfileTable(
        [reid.train_profile(t, size, owner=i) for i, t in enumerate(source.traces)]))
    probes = np.array([t[0] for t in eval_ds.traces], dtype=np.int64)
    return AttackSetup(size=size, probes=probes, table=table)


@dataclass
class ExperimentResult:
    out_dir: str
    manifest: dict
    files: dict


def run_experiment(config: ExperimentConfig, out_dir) -> ExperimentResult:
    """Run every stage and write the report bundle into out_dir."""
    os.makedirs(out_dir, exist_ok=True)
    tag = config.config_hash()
    seed = config.seed
    stages: list[dict] = []
    files: dict = {}
    manifest_path = os.path.join(out_dir, "MANIFEST.json")

    def finish_manifest(status: str):
        manifest = {
            "schema_version": 1,
            "status": status,
            "config": config.to_dict(),
            "config_hash": tag,
            "seed": seed,
            "created_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            "stages": stages,
            "files": files,
        }
        with open(manifest_path, "w") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
        return manifest

    def run_stage(name, fn):
        try:
            out = fn()
        except Exception as exc:
            stages.append({"name": name, "status": "failed", "error": str(exc)})
            finish_manifest("incomplete")
            raise PipelineError(name, exc) from exc
        stages.append({"name": name, "status": "ok"})
        return out

    def write_table(name, header, rows):
        """Write a report with config,seed in front of every line, and record its sha256."""
        path = os.path.join(out_dir, name)
        _write_csv(path, ["config", "seed", *header], ([tag, seed, *row] for row in rows))
        with open(path, "rb") as fh:
            files[name] = hashlib.sha256(fh.read()).hexdigest()

    stream_iter = iter(probcore.spawn_streams(
        seed, 4 + 2 * len(config.epsilons) + len(config.g_sweep)))
    setup = attack_setup(config, stream_iter, run_stage)
    n, size, probes = setup.probes.size, setup.size, setup.probes
    p_true = np.bincount(probes, minlength=size).astype(np.float64) / n

    # stage: closed-form caps and Fano floors per epsilon, which the later stages read
    def stage_bounds():
        reports, rows = [], []
        for eps in config.epsilons:
            rep = bounds.bound_report(n=n, size=size, epsilon=eps,
                                      g=_glh_bucket_count(config.glh_g, eps))
            fano = rep.fano
            rows.append([eps, rep.g, rep.theta_rr, rep.alpha_ldp, rep.alpha_rr,
                         rep.theta_glh, rep.alpha_glh,
                         fano["ldp"]["value"], fano["rr"]["value"], fano["glh"]["value"]])
            reports.append(rep)
        write_table("bounds_sweep.csv", ["epsilon", "g", "theta_rr", "alpha_ldp", "alpha_rr",
                                         "theta_glh", "alpha_glh",
                                         "fano_ldp", "fano_rr", "fano_glh"], rows)
        return reports

    reports = run_stage("bounds", stage_bounds)

    # stage: attack sweep (error rate and score-level information per epsilon)
    def stage_attack():
        point_streams = [next(stream_iter) for _ in config.epsilons]

        def one_point(i):
            rep, rng = reports[i], point_streams[i]
            out = []
            for mech_name, alpha in (("rr", rep.alpha_rr), ("glh", rep.alpha_glh)):
                mech = attack_mechanism(mech_name, rep.epsilon, size, rep.g)
                sample = pse.harvest_scores(probes, mech, setup.table, config.pse_trials, rng)
                est = pse.pse_estimate(sample, k=config.pse_k, jitter_seed=seed)
                err = reid.identification_error_rate(*reid.probe_score_trials(
                    probes, mech, setup.table, config.reid_trials, rng))
                out.append([rep.epsilon, mech_name, rep.g if mech_name == "glh" else None,
                            est.bits, est.raw_bits, alpha,
                            sample.genuine.size, sample.impostor.size,
                            err, rep.fano["ldp"]["value"], rep.fano[mech_name]["value"]])
            return out

        workers = config.threads if config.threads > 0 else mechanisms._match_workers()
        if workers > 1 and len(config.epsilons) > 1:
            with ThreadPoolExecutor(max_workers=workers) as pool:
                chunks = list(pool.map(one_point, range(len(config.epsilons))))
        else:
            chunks = [one_point(i) for i in range(len(config.epsilons))]
        write_table("pse_sweep.csv", ["epsilon", "mechanism", "g", "pse_bits", "pse_raw_bits",
                                      "alpha_bound", "n_genuine", "n_impostor",
                                      "error_rate", "fano_ldp", "fano_mech"],
                    [row for chunk in chunks for row in chunk])

    run_stage("attack", stage_attack)

    # stage: estimator utility over epsilon
    def stage_utility_eps():
        rng = next(stream_iter)
        rows = []
        for rep in reports:
            eps, g = rep.epsilon, rep.g
            rr_batch = rr_sample_batch(RandomizedResponse(eps, size), probes, rng)
            est_rr = estimation.estimate_rr(rr_batch, eps, size)
            thr_rr = estimation.apply_significance_threshold(
                est_rr, estimation.rr_null_variance(eps, size, n), config.threshold_level)
            glh = GeneralLocalHash.with_production_family(eps, g, size)
            glh_batch = glh_sample_batch(glh, probes, rng)
            est_glh = estimation.estimate_glh(glh_batch, eps, size)
            thr_glh = estimation.apply_significance_threshold(
                est_glh, estimation.glh_null_variance(eps, g, n), config.threshold_level)
            for mech_name, est, thr in (("rr", est_rr, thr_rr), ("glh", est_glh, thr_glh)):
                for requested_phi in config.phis:
                    phi = min(requested_phi, size)  # top-phi of however many symbols exist
                    raw = estimation.l2_and_relative_error(p_true, est.p_hat, phi)
                    cut = estimation.l2_and_relative_error(p_true, thr.p_hat, phi)
                    rows.append([eps, mech_name, phi, raw.l2_sum, raw.mean_relative_error,
                                 cut.l2_sum, cut.mean_relative_error])
        write_table("utility_eps.csv", ["epsilon", "mechanism", "phi", "l2_raw", "rel_err_raw",
                                        "l2_thresholded", "rel_err_thresholded"], rows)

    run_stage("utility_eps", stage_utility_eps)

    # stage: bucket-count sweep at fixed shrink factor
    def stage_utility_g():
        theta = config.theta_for_g_sweep
        top = int(np.argmax(p_true))
        rows = []
        for g in config.g_sweep:
            rng = next(stream_iter)
            eps = bounds.epsilon_for_theta(theta, g)
            glh = GeneralLocalHash.with_production_family(eps, g, size)
            batch = glh_sample_batch(glh, probes, rng)
            est = estimation.estimate_glh(batch, eps, size)
            sq_err = float((est.p_hat[top] - p_true[top]) ** 2)
            rows.append([g, eps,
                         estimation.expected_l2_glh_theta(theta, g, n, float(p_true[top])),
                         estimation.expected_l2_glh_limit(theta, n, float(p_true[top])),
                         sq_err])
        write_table("utility_g.csv", ["g", "epsilon", "expected_l2_top", "limit_l2_top",
                                      "observed_sq_err_top"], rows)

    run_stage("utility_g", stage_utility_g)

    manifest = finish_manifest("complete")
    return ExperimentResult(out_dir=str(out_dir), manifest=manifest, files=files)


def write_synth_checkins(dataset: TraceDataset, path) -> None:
    """Write a dataset in the check-in CSV format (timestamp = event index)."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["user_id", "timestamp", "poi_id"])
        for u, trace in enumerate(dataset.traces):
            for t, x in enumerate(trace):
                w.writerow([f"u{u:06d}", t, dataset.alphabet.label_of(int(x))])
