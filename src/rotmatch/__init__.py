"""rotmatch: rotation-equivariant feature extraction and coarse-to-fine
dense image matching, with homography geometry and a desk-scale benchmark
harness."""

from .backbone import Backbone, BackboneConfig, FeaturePair, extract
from .config import Config, load_config
from .geometry import (EstimationFailure, Homography, MetricsReport, auc,
                       corner_error, dlt, mma, projective_distance,
                       ransac_homography)
from .groups import (CyclicGroup, FieldType, GroupElement, act_on_field,
                     regular_permutation, rotate_image, rotate_kernel)
from .matcher import (CoarseMatcher, CoarseMatchSet, FineMatch, FineMatcher,
                      MatcherConfig, add_positional_encoding, mutual_matches)
from .model import MatcherModel, load_model, save_model
from .nn import Linear, Module, param_count
from .steerable import EquivConv, InnerBatchNorm, calibrate_norm_stats
from .tensor import (GradientTape, Tensor, backward, bilinear_warp, conv2d,
                     finite_diff_check)

__version__ = "0.1.0"
