"""Conformal data contamination tests and the collaborative data-sharing protocol.

Distribution-free tests of whether an external data batch exceeds a
contamination threshold, built from conformal p-values; multiple-testing
control over many agents; the multi-round data-sharing procedure that uses
them; and a Monte Carlo harness that validates the lot.
"""

from .conformal import (
    ConformalCalibration,
    Datapoint,
    ScoreSplit,
    classwise_trainer,
    conformal_pvalues,
    conformal_pvalues_from_scores,
    knn_distance_trainer,
    negative_norm_trainer,
    read_datapoints_csv,
    split_fit,
    split_sample,
)
from .contamtest import (
    ContamTestResult,
    ContamTestSpec,
    default_i0,
    default_lambda,
    fisher_pvalue,
    fisher_stat,
    generic_g_pvalue,
    quantile_pvalue,
    quantile_stat,
    run_contam_test,
    run_contam_tests,
    storey_pvalue,
    storey_stat,
    sum_pvalue,
    sum_stat,
)
from .errors import ConfigurationError, DataError, ProtocolRunError, SourceExhausted
from .harness import (
    GaussianSource,
    McReport,
    ScenarioConfig,
    draw_scenario,
    gen_scenario,
    mc_fdr_tdr,
    mc_power,
    oracle_nhg_enumeration,
)
from .mht import MultipleTestOutcome, PValueVector, bh, storey_bh, storey_fdr_estimate
from .protocol import (
    AgentAssessment,
    AgentBatch,
    ProtocolConfig,
    ProtocolReport,
    SelectionDecision,
    assess_round1,
    budget_by_validation,
    run_procedure,
    select_fixed_budget,
    select_threshold,
)
from .statdist import (
    GFunction,
    NhgParams,
    chi2_cdf,
    fisher_variant_g,
    gsum_cdf,
    identity_g,
    irwin_hall_cdf,
    nhg_cdf,
)

__version__ = "0.1.0"
