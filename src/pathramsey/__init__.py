"""Adversarial colorings and first-moment constants for multicolor
path-type size Ramsey bounds."""

from .adversary import (AdversaryParams, Coloring, LineCounts, check_confinement,
                        color_edges, count_lines, find_certificate,
                        random_partition, split_v0)
from .affine_plane import AffinePlane, build_plane
from .arrowing import (ExpansionSpec, arrow_bruteforce, check_expansion,
                       count_zero_pairs, subset_size_for)
from .bounds import (TailBound, loose_tail, lower_bound_general,
                     lower_bound_path_power, make_tail_bound, mcdiarmid,
                     min_C_for_margin, union_margin)
from .finite_field import (FieldElement, FieldSpec, field_add, field_for_order,
                           field_inv, field_mul, field_new, is_prime_power)
from .first_moment import (OptimizationResult, binding_degree, c1_ratio,
                           exact_log_moment, f_prefactor, g_affine_parts,
                           g_rate, g_surface, moment_convergence,
                           optimize_constants, three_color_misprint_report)
from .graphs import (HostGraph, complete_graph, gnm_random, gnp_random,
                     power_of_path, read_edge_list, write_edge_list)
from .pairing import (Pairing, expected_simplicity, is_simple, project,
                      project_support, sample_pairing, sample_simple)

__version__ = "0.1.0"
