"""Lattice-theoretic classification of multipartite partial-correlation
properties: partitions, partition ideals, class labels, and the worked
classifications, all cross-checked against a brute-force type oracle."""

from .catalogs import Catalog, catalog_cover_check, catalog_for, custom_catalog
from .classify import (ClassDescriptor, Filter, class_exists, class_mask,
                       class_order, classes_equal, describe_class,
                       enumerate_filters, lemma_principal_check, make_filter,
                       oracle_cross_check, signature_groups, type_set)
from .ideals import (Ideal, PropertyContext, atom_context,
                     chain_check_part_prod, coatom_context, enumerate_ideals,
                     full_context, k_partitionability_context,
                     k_partitionable_ideal, k_producibility_context,
                     k_producible_ideal, parse_ideal, principal_ideal)
from .partitions import (Partition, PartitionLattice, all_partitions,
                         bell_number, enumerate_partitions)
from .poset import CapExceeded, MissingExtremum, OrderViolation, Poset
from .venn import (LabeledFamily, check_lemma_upset, counterexample_family,
                   generic_family, random_family, three_label_posets)

__version__ = "0.1.0"
