"""Re-identification risk toolkit for locally obfuscated categorical data.

Quantifies how much identity information survives local obfuscation
(randomized response and local-hash mechanisms), bounds the payoff of any
re-identification attack, runs concrete profile-matching attacks, and
estimates population distributions from the obfuscated releases. A
brute-force oracle checks every closed-form bound on small instances.
"""

from .bounds import (FanoBound, PieBoundReport, alpha_for_target_bayes_error,
                     bound_report, epsilon_for_theta, fano_lower_bound,
                     glh_utility_optimal_g, mi_loss_glh, mi_loss_rr,
                     pie_bound_composed, pie_bound_glh, pie_bound_ldp,
                     pie_bound_rr)
from .estimation import (FrequencyEstimate, UtilityReport,
                         apply_significance_threshold, estimate_glh,
                         estimate_rr, expected_l2_glh, expected_l2_glh_limit,
                         expected_l2_glh_theta, expected_l2_rr,
                         glh_null_variance, l2_and_relative_error,
                         rr_null_variance)
from .mechanisms import (PRODUCTION_PRIME, CarterWegman, ExhaustiveTable,
                         GeneralLocalHash, GlhBatch, MechanismKernel,
                         RandomizedResponse, RrBatch, glh_sample_batch,
                         mixture_kernel, postprocess, read_records, rr_kernel,
                         rr_sample_batch, write_records)
from .oracle import (BoundViolationReport, SmallInstance, exact_bayes_error,
                     exact_composed_pie, exact_pie, exact_pse,
                     random_small_instance, verify_bound_suite)
from .pipeline import (DataError, ExperimentConfig, ExperimentResult,
                       PipelineError, SynthesisSpec, TraceDataset,
                       ingest_checkins, run_experiment, split_traces,
                       synth_population, zipf_law)
from .probcore import (CategoricalDistribution, MarkovSource, PopulationModel,
                       entropy, make_rng, mutual_information, sample,
                       sample_markov, spawn_streams)
from .pse import (ConvergenceReport, KnnKlEstimate, ScoreSample,
                  convergence_probe, harvest_scores, harvest_scores_sparse,
                  knn_kl_estimate, pse_estimate)
from .reid import (DetCurve, MarkovProfile, ProfileTable, far_frr_det,
                   identification_error_rate, probe_score_trials,
                   simulate_score_trials, train_profile)

__version__ = "0.1.0"
