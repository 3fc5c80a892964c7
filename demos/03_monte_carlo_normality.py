"""Monte Carlo validation of the estimator's limit law.

Runs a seeded replicate experiment, summarizes the error sample, and compares
its covariance against the closed-form limit — both for the sqrt(T)-scaled
errors and for the random-scaling statistic whose limit is parameter-free in
the mean-reversion block.
"""

import numpy as np

import hestonlab as hl

params = hl.canonical_params()
config = hl.ExperimentConfig(
    params=params,
    grid=hl.TimeGrid(horizon=1000.0, steps=10_000),
    scheme=hl.Scheme.DISRE,
    replicates=400,
    master_seed=42,
)

run = hl.run_replicates(config, threads=4)
print(f"replicates: {len(run.results)} ok, {len(run.failures)} failed")

summary = hl.summarize(run.results, params)
print(f"mean Y_T = {summary.mean_y_terminal:.4f}   (ergodic value {params.a/params.b:.4f})")
print(f"mean X_T/T = {summary.mean_x_terminal_over_t:.4f}   "
      f"(ergodic value {params.alpha - params.beta*params.a/params.b:.4f})")
print()

print(f"{'param':>6} {'bias':>9} {'L1':>8} {'L2':>8} {'skew':>7} {'ex.kurt':>8} {'AD p':>7} {'JB p':>7}")
for name in ("a", "b", "alpha", "beta"):
    s = summary.per_param[name]
    print(f"{name:>6} {s.expected_bias:9.4f} {s.l1_error:8.4f} {s.l2_error:8.4f} "
          f"{s.skewness:7.3f} {s.excess_kurtosis:8.3f} {s.ad_pvalue:7.3f} {s.jb_pvalue:7.3f}")

theory = hl.asymptotic_covariance(params)
report = hl.covariance_check(summary, theory)
print()
print("sample vs limit covariance of the sqrt(T)-scaled errors")
print("  sample diag:", np.round(np.diag(summary.cov_normalized), 3))
print("  limit  diag:", np.round(np.diag(theory.sigma_matrix), 3))
print(f"  worst entrywise deviation: {report.max_normalized_dev:.3f}")
print()
print("random-scaling statistic (limit diag = 0.16, 0.16, 0.09, 0.09)")
print("  sample diag:", np.round(np.diag(summary.cov_scaled), 3))
print(f"  worst entrywise deviation: {report.max_scaled_dev:.3f}")

# histogram of the first normalized error component with its normal overlay
h = hl.histogram_overlay(
    run.results.normalized[:, 0],
    theoretical_variance=float(np.diag(theory.sigma_matrix)[0]))
peak = np.argmax(h.density)
print()
print(f"histogram of sqrt(T)(a_hat - a): 60 bins, peak density "
      f"{h.density[peak]:.3f} at {h.bin_centers[peak]:+.2f}, "
      f"overlay there {h.overlay[peak]:.3f}")
