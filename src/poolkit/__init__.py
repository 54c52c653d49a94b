"""poolkit: pooling-problem formulations, rank-one convexifications,
LP/MIP relaxations and bound tightening."""

from .instances import (MiningSchedule, PoolingInstance, convert_mining,
                        generalize, parse_instance, parse_mining)
from .rank1 import (BoundBox, build_colwise_extension, build_intersection,
                    build_rowcol_extension, build_rowwise_extension,
                    check_extreme_point_property, gen_rlt_conic, gen_rlt_mccormick,
                    gen_rlt_reverse_convex, hull_bound, is_rank_le_one, make_box,
                    membership_T, normalize, sample_rank_one_points)
from .formulations import build_exact, check_solution
from .relaxations import MethodSpec, build_method, parse_method
from .tightening import BoundUpdate, apply_bounds, default_obbt_recipe, obbt
from .bench import compute_gap, exact_value, run_grid
from .modelir import ModelIR, dump_model
from .solver import SolveParams, SolveResult, solve

__version__ = "0.1.0"
