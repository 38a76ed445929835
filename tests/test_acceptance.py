"""Acceptance gate: one test per shipped guarantee, one PASS/FAIL line each.

Every numeric target here was fixed ahead of time (closed forms recomputed
independently, Monte Carlo designs dry-run at full scale) and the seeds are
frozen; reruns are deterministic. The heavy tests stay within the stated
runtime budgets on a small container.
"""

import json
import math

import numpy as np

import reidrisk as rr
from reidrisk.cli import main
from reidrisk.estimation import (expected_l2_glh, expected_l2_glh_limit,
                                 expected_l2_glh_theta, expected_l2_rr,
                                 l2_and_relative_error)
from reidrisk.pipeline import (SynthesisSpec, split_traces,
                               synth_population, zipf_law)
from reidrisk.pse import harvest_scores_sparse, knn_kl_estimate


def _verdict(capsys, num: int, what: str, ok: bool, detail: str = "") -> None:
    line = f"ACCEPTANCE {num} {what}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  [{detail}]"
    with capsys.disabled():
        print("\n" + line, flush=True)
    assert ok, line


def _cli_json(capsys, *argv):
    code = main(list(argv))
    text = capsys.readouterr().out
    return code, json.loads(text)


def test_acceptance_1_bound_table(capsys):
    """Published bound table at n=1370637, |X|=10500393 within 5%."""
    n, size = 1_370_637, 10_500_393
    targets = {0.1: (0.014, 2.0e-7), 1.0: (1.4, 3.3e-6), 10.0: (14.0, 0.043)}
    worst = 0.0
    ok = True
    for eps, (t_ldp, t_rr) in targets.items():
        code, payload = _cli_json(capsys, "bounds", "--n", str(n), "--size",
                                  str(size), "--epsilon", str(eps))
        ok &= code == 0
        for got, want in ((payload["alpha_ldp"], t_ldp), (payload["alpha_rr"], t_rr)):
            rel = abs(got / want - 1.0)
            worst = max(worst, rel)
            ok &= rel <= 0.05
    _verdict(capsys, 1, "closed-form bound table vs published values", ok,
             f"worst relative gap {worst:.3%} (allow 5%)")


def test_acceptance_2_oracle_suite(capsys):
    """1000 random small instances, every inequality checked exactly."""
    code, payload = _cli_json(capsys, "oracle", "--count", "1000",
                              "--seed", "20260817")
    ok = code == 0 and payload["passed"] and payload["violations"] == []
    _verdict(capsys, 2, "brute-force oracle, 1000 instances, zero violations",
             ok, f"{payload['checks_run']} checks run")


def test_acceptance_3_estimator_bias_and_variance(capsys):
    """Frequency estimators: unbiased within 4 SE, variance within 5%."""
    n, T = 10**5, 2000
    eps = math.log(3.0)
    oks, details = [], []

    # randomized response over 8 symbols; exact integer composition
    size = 8
    p = np.array([0.25, 0.20, 0.15, 0.12, 0.10, 0.08, 0.06, 0.04])
    xs = np.repeat(np.arange(size), np.round(p * n).astype(int))
    assert xs.size == n
    mech = rr.RandomizedResponse(eps, size)
    rng = rr.make_rng(31415)
    hats = np.empty((T, size))
    for t in range(T):
        hats[t] = rr.estimate_rr(rr.rr_sample_batch(mech, xs, rng), eps, size).p_hat
    an = np.array([expected_l2_rr(eps, size, n, float(px)) for px in p])
    bias_se = np.abs(hats.mean(0) - p) / np.sqrt(an / T)
    ratio = float(((hats - p) ** 2).sum(axis=1).mean()) / an.sum()
    oks.append(bias_se.max() < 4.0 and abs(ratio - 1.0) <= 0.05)
    details.append(f"rr bias {bias_se.max():.2f}se var ratio {ratio:.4f}")

    # hashed mechanism over 16 symbols, 4 buckets; exact integer composition
    size, g = 16, 4
    counts = np.array([16000, 13000, 11000, 9000, 8000, 7000, 6000, 5500,
                       5000, 4500, 4000, 3500, 3000, 2500, 1500, 500])
    assert counts.sum() == n
    p = counts / n
    xs = np.repeat(np.arange(size), counts)
    mechg = rr.GeneralLocalHash.with_production_family(eps, g, size)
    rng = rr.make_rng(31415)
    hats = np.empty((T, size))
    for t in range(T):
        hats[t] = rr.estimate_glh(rr.glh_sample_batch(mechg, xs, rng), eps, size).p_hat
    an = np.array([expected_l2_glh(eps, g, n, float(px)) for px in p])
    bias_se = np.abs(hats.mean(0) - p) / np.sqrt(an / T)
    ratio = float(((hats - p) ** 2).sum(axis=1).mean()) / an.sum()
    oks.append(bias_se.max() < 4.0 and abs(ratio - 1.0) <= 0.05)
    details.append(f"glh bias {bias_se.max():.2f}se var ratio {ratio:.4f}")

    _verdict(capsys, 3, "estimator unbiasedness and closed-form variance",
             all(oks), "; ".join(details))


def test_acceptance_4_l2_monotone_in_buckets(capsys):
    """At fixed shrink 0.5, l2 loss falls with bucket count toward the limit."""
    rng = rr.make_rng(271828)
    n, T, size = 2 * 10**4, 800, 100
    theta = 0.5
    p = np.full(size, 1.0 / size)
    xs = np.repeat(np.arange(size), n // size)
    gs = [4, 64, 1024, 10**6]
    an, mc = [], []
    for g in gs:
        eps = rr.epsilon_for_theta(theta, g)
        mech = rr.GeneralLocalHash.with_production_family(eps, g, size)
        tot = 0.0
        for _ in range(T):
            hat = rr.estimate_glh(rr.glh_sample_batch(mech, xs, rng), eps, size).p_hat
            tot += float(((hat - p) ** 2).sum())
        an.append(size * expected_l2_glh_theta(theta, g, n, 1.0 / size))
        mc.append(tot / T)
    lim = size * expected_l2_glh_limit(theta, n, 1.0 / size)
    analytic_mono = all(a > b for a, b in zip(an, an[1:]))
    mc_mono = all(a > b for a, b in zip(mc, mc[1:]))
    agree = all(abs(m / a - 1.0) <= 0.1 for m, a in zip(mc, an))
    limit_gap = abs(an[-1] - lim) / lim
    ok = analytic_mono and mc_mono and agree and limit_gap < 0.01
    _verdict(capsys, 4, "l2 loss decreasing in bucket count, limit matched", ok,
             f"analytic mono {analytic_mono}, mc mono {mc_mono}, "
             f"limit gap {limit_gap:.5%}")


def test_acceptance_5_knn_kl_estimator(capsys):
    """Shifted Gaussians: estimated divergence within 5% of the exact value."""
    target = 0.5 / math.log(2.0)  # KL(N(0,1) || N(1,1)) in bits
    rng = rr.make_rng(2020)
    gen = rng.normal(0.0, 1.0, size=50_000)
    imp = rng.normal(1.0, 1.0, size=50_000)
    est = knn_kl_estimate(gen, imp, k=5, jitter_seed=2020)
    rel = abs(est.bits / target - 1.0)
    _verdict(capsys, 5, "k-NN divergence estimator on shifted Gaussians",
             rel <= 0.05, f"{est.bits:.4f} vs {target:.4f} bits, gap {rel:.2%}")


def test_acceptance_6_pse_alpha_fano_sandwich(capsys):
    """Synthetic population: score leakage <= cap, error >= every Fano curve."""
    streams = rr.spawn_streams(606, 30)
    spec = SynthesisSpec(n_users=10**4, size=10**3, zipf_exponent=1.0,
                         concentration=1.0, support_size=16,
                         train_len=16, eval_len=16)
    pop, ds = synth_population(spec, streams[0])
    train_ds, eval_ds = split_traces(ds)
    table = rr.ProfileTable([rr.train_profile(t, 1000, owner=i)
                             for i, t in enumerate(train_ds.traces)])
    probes = np.array([t[0] for t in eval_ds.traces])

    n, size = 10**4, 10**3
    si = 1
    rows, ok = [], True
    for eps in (0.1, 0.5, 1.0, 2.0, 5.0, 10.0):
        for mech_name in ("rr", "glh"):
            if mech_name == "rr":
                mech = rr.RandomizedResponse(eps, size)
                alpha = rr.pie_bound_rr(eps, n, size)
                ng, ni = 10**6, 2 * 10**6
            else:
                g = max(2, int(round(math.exp(eps) + 1)))
                mech = rr.GeneralLocalHash.with_production_family(eps, g, size)
                alpha = rr.pie_bound_glh(eps, g, n, size)
                ng, ni = 2 * 10**5, 4 * 10**5
            sample = harvest_scores_sparse(probes, mech, table, ng, ni,
                                           streams[si])
            si += 1
            est = knn_kl_estimate(sample.genuine, sample.impostor, k=63,
                                  jitter_seed=606)
            err = rr.identification_error_rate(*rr.probe_score_trials(probes, mech, table, 1500,
                                                                      streams[si]))
            si += 1
            fano_mech = rr.fano_lower_bound(alpha, n=n).value
            fano_ldp = rr.fano_lower_bound(rr.pie_bound_ldp(eps, n, size), n=n).value
            point_ok = (est.bits <= alpha and err >= fano_mech and err >= fano_ldp)
            ok &= point_ok
            rows.append(f"eps={eps} {mech_name} pse={est.bits:.4f} "
                        f"alpha={alpha:.4f} err={err:.3f} "
                        f"fano>={max(fano_mech, fano_ldp):.3f} "
                        f"{'ok' if point_ok else 'VIOLATED'}")
    _verdict(capsys, 6, "score leakage under cap and error above Fano floors "
             "at all 12 operating points", ok, "; ".join(r for r in rows if "VIOL" in r) or "12/12")


def test_acceptance_7_privacy_utility_separation(capsys):
    """Budget chosen for 90% attacker error still gives usable top-20 counts."""
    rng = rr.make_rng(1000003)
    n, size = 10**6, 10**4
    law = zipf_law(size, 1.0)
    xs = rr.sample(rr.CategoricalDistribution(size, law), rng, n)
    p_emp = np.bincount(xs, minlength=size) / n  # the data is fixed; so is truth

    budget = rr.alpha_for_target_bayes_error(0.9, n=n)
    theta_star = budget.value / min(np.log2(n), np.log2(size))
    eps_star = rr.epsilon_for_theta(theta_star, size)

    rel = {}
    for label, eps in (("star", eps_star), ("one", 1.0)):
        mech = rr.RandomizedResponse(eps, size)
        est = rr.estimate_rr(rr.rr_sample_batch(mech, xs, rng), eps, size)
        rel[label] = l2_and_relative_error(p_emp, est.p_hat, 20).mean_relative_error
    fano_star = rr.fano_lower_bound(rr.pie_bound_rr(eps_star, n, size), n=n).value

    ok = (rel["star"] < 0.2 and rel["one"] > 1.0
          and math.isclose(fano_star, 0.9, rel_tol=1e-9))
    _verdict(capsys, 7, "90%-error operating point keeps top-20 relative error "
             "under 0.2 while eps=1 exceeds 1", ok,
             f"rel_err* {rel['star']:.4f}, rel_err@1 {rel['one']:.4f}, "
             f"fano* {fano_star:.4f}")


def test_acceptance_8_simulate_determinism(capsys, tmp_path):
    """Repeated simulate runs with one seed are byte-identical."""
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({
        "seed": 3, "threads": 2, "n_users": 60, "size": 32, "support_size": 8,
        "train_len": 12, "eval_len": 12, "epsilons": [0.5, 1.0, 2.0],
        "reid_trials": 150, "pse_trials": 200, "pse_k": 5,
        "g_sweep": [2, 4, 8], "phis": [10],
    }))
    codes = []
    for d in ("a", "b"):
        codes.append(main(["simulate", "--config", str(cfg),
                           "--out", str(tmp_path / d)]))
    capsys.readouterr()
    ok = codes == [0, 0]
    names = ["bounds_sweep.csv", "pse_sweep.csv", "utility_eps.csv",
             "utility_g.csv"]
    same = []
    for name in names:
        same.append((tmp_path / "a" / name).read_bytes()
                    == (tmp_path / "b" / name).read_bytes())
    ok &= all(same)
    manifests = []
    for d in ("a", "b"):
        m = json.loads((tmp_path / d / "MANIFEST.json").read_text())
        m.pop("created_utc")
        manifests.append(m)
    ok &= manifests[0] == manifests[1]
    _verdict(capsys, 8, "simulate reruns byte-identical at fixed seed", ok,
             f"{sum(same)}/4 files identical, manifests match: "
             f"{manifests[0] == manifests[1]}")
