"""Nonuniform tail bounds for sums of independent random variables.

The package has four layers:

* :mod:`sumtails.discrete` -- exact (rational) and float atomic measures:
  construction, capping transforms, convolution; tail queries are methods
  of the measures (``law.tail(z)``);
* :mod:`sumtails.scalars` / :mod:`sumtails.gauss` -- the scalar ingredients:
  the moment functional beta_v, the Young-type inequality, normal CDF /
  Mills ratio / Stein function numerics;
* :mod:`sumtails.bounds` -- the bound evaluators: :class:`SystemOracle`
  caches the exact laws of one system and answers Delta_w and the
  concentration quantities Q and Q* a row of z values at a time
  (``oracle.delta_row``, ``oracle.concentration_row``; ``oracle.delta``,
  ``.q`` and ``.qstar`` are rows of one); :func:`p_bounds` reports the
  five tail-difference bounds, the exponential normal-approximation bound
  and their composite (``report.corollary_bound``); plus the
  Bennett-Hoeffding bound;
* :mod:`sumtails.verify` / :mod:`sumtails.mc` -- seeded corpora, exact
  verification sweeps, empirical constant calibration, sharpness reports,
  and reproducible Monte Carlo for sizes beyond the exact oracle.

The command line lives in :mod:`sumtails.cli` (entry point ``sumtails``).
"""

from .bounds import (
    BoundParams,
    BoundReport,
    SystemOracle,
    bh_bound,
    bikelis_sum,
    bound_reports_to_csv,
    bound_reports_to_json,
    normal_tail,
    p_bounds,
    theorem_bound,
)
from .discrete import (
    CONVOLUTION_CAP,
    Atom,
    ConvolutionCapError,
    DiscreteRV,
    SubMeasure,
    System,
    convolve,
    degenerate,
    load_system,
    make_system,
    max_tail,
    restrict_at_most,
    save_system,
    system_from_dict,
    system_to_dict,
    truncate,
    winsorize,
)
from .gauss import GaussEval, mills, norm_cdf, norm_pdf, std_normal, stein_f
from .mc import (
    BoundCheckReport,
    BoundCheckRow,
    SamplerSpec,
    TailEstimate,
    clopper_pearson,
    mc_check_bounds,
    mc_tails,
)
from .scalars import (
    DeltaMomentReport,
    LemmaGrid,
    Violation,
    YoungEval,
    beta_v,
    check_pointwise_lemmas,
    delta_moment_check,
    g,
    mean_abs_bound,
    mu_p,
    young_delta,
    young_delta_star,
    young_grid_scan,
    young_k_star,
)
from .verify import (
    CalibrationResult,
    CorpusSpec,
    CorpusVerification,
    MeanAbsReport,
    OsipovViolation,
    SharpnessReport,
    calibrate,
    calibration_ratio,
    extremal_report,
    extremal_system,
    gen_corpus,
    mean_abs_sharpness,
    verify_corpus,
    verify_osipov,
)

__version__ = "0.1.0"
