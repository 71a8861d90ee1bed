"""ultracomb: random ultrametric trees represented as combs.

Sampling of exchangeable-coalescent combs, coalescent point processes
and population genealogies; Poisson neutral mutations on comb skeletons;
exact and Monte Carlo allele frequency spectra.
"""

__version__ = "0.1.0"

from .comb import (BoundaryPoint, Comb, Partition, ball_partition,
                   comb_distance, comb_from_ultrametric, comb_to_tree,
                   validate_ultrametric)
from .contour import ContourFunction, sphere_comb_from_contour, tree_from_contour
from .errors import (EmptySphereError, NumericError, ResourceError,
                     UltracombError, ValidationError)
from .intensity import (CustomLifetime, ExponentialLifetime, FixedLifetime,
                        Immortal, IntensityModel, PopulationModel,
                        ScaleSolution, TimeChange, cpp_intensity_from_pure_birth,
                        mutation_rate_pushforward, parse_lifetime,
                        solve_scale_function, time_change_comb)
from .mutation import (ORIGIN_BRANCH, ClonalSet, MutationMeasure, MutationSet,
                       assign_alleles, clonal_laplace_exponent, clonal_set,
                       scatter_mutations)
from .rng import RandomSource
from .sampling import (CppSample, padic_comb, reduce_population_tree,
                       rescale_comb, sample_cpp, sample_cpp_fixed_width,
                       sample_kingman_comb, sample_splitting_tree,
                       unrescale_comb)
from .spectrum import (FrequencySpectrum, esf_probability,
                       expected_sample_spectrum, gem_ranked_oracle,
                       integer_partition_counts, normalized_tail_spectrum,
                       population_spectrum, sample_esf_spectra,
                       sample_kingman_allelic_partition, spectrum_of_partition)
from .tree import Tree, TreeNode, parse_newick

__all__ = [
    "BoundaryPoint", "Comb", "Partition", "ball_partition", "comb_distance",
    "comb_from_ultrametric", "comb_to_tree", "validate_ultrametric",
    "ContourFunction", "sphere_comb_from_contour", "tree_from_contour",
    "EmptySphereError", "NumericError", "ResourceError", "UltracombError",
    "ValidationError",
    "CustomLifetime", "ExponentialLifetime", "FixedLifetime", "Immortal",
    "IntensityModel", "PopulationModel", "ScaleSolution", "TimeChange",
    "cpp_intensity_from_pure_birth", "mutation_rate_pushforward",
    "parse_lifetime", "solve_scale_function", "time_change_comb",
    "ORIGIN_BRANCH", "ClonalSet", "MutationMeasure", "MutationSet",
    "assign_alleles", "clonal_laplace_exponent", "clonal_set",
    "scatter_mutations",
    "RandomSource",
    "CppSample", "padic_comb", "reduce_population_tree", "rescale_comb",
    "sample_cpp", "sample_cpp_fixed_width", "sample_kingman_comb",
    "sample_splitting_tree", "unrescale_comb",
    "FrequencySpectrum", "esf_probability", "expected_sample_spectrum",
    "gem_ranked_oracle", "integer_partition_counts",
    "normalized_tail_spectrum", "population_spectrum", "sample_esf_spectra",
    "sample_kingman_allelic_partition", "spectrum_of_partition",
    "Tree", "TreeNode", "parse_newick",
]
