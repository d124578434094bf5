//! Property-based tests for tracking invariants.

use ifet_track::components::{ComponentLabels, Connectivity};
use ifet_track::criterion::MaskCriterion;
use ifet_track::region_grow::grow_4d;
use ifet_track::FeatureOctree;
use ifet_volume::{Dims3, Mask3, ScalarVolume, TimeSeries};
use proptest::prelude::*;

fn dims_strategy() -> impl Strategy<Value = Dims3> {
    (2usize..7, 2usize..7, 2usize..7).prop_map(|(x, y, z)| Dims3::new(x, y, z))
}

fn mask_strategy() -> impl Strategy<Value = Mask3> {
    dims_strategy().prop_flat_map(|d| {
        proptest::collection::vec(any::<bool>(), d.len()).prop_map(move |bits| {
            let mut m = Mask3::empty(d);
            for (i, b) in bits.into_iter().enumerate() {
                m.set_linear(i, b);
            }
            m
        })
    })
}

proptest! {
    #[test]
    fn octree_roundtrip_any_mask(m in mask_strategy()) {
        let tree = FeatureOctree::from_mask(&m);
        prop_assert_eq!(tree.to_mask(), m.clone());
        prop_assert_eq!(tree.voxel_count(), m.count());
    }

    #[test]
    fn component_sizes_partition_mask(m in mask_strategy()) {
        let l = ComponentLabels::label(&m, Connectivity::Six);
        let sizes = l.sizes();
        prop_assert_eq!(sizes.iter().sum::<usize>(), m.count());
        // Each component's mask is non-empty and labelled consistently.
        for label in 1..=l.count() {
            let cm = l.component_mask(label);
            prop_assert_eq!(cm.count(), sizes[label as usize]);
            prop_assert!(cm.count() > 0);
        }
    }

    #[test]
    fn connectivity26_never_more_components(m in mask_strategy()) {
        let six = ComponentLabels::label(&m, Connectivity::Six).count();
        let tsix = ComponentLabels::label(&m, Connectivity::TwentySix).count();
        prop_assert!(tsix <= six);
    }

    #[test]
    fn filter_small_is_subset_and_monotone(m in mask_strategy(), k in 1usize..5) {
        let l = ComponentLabels::label(&m, Connectivity::Six);
        let big = l.filter_small(k);
        let bigger = l.filter_small(k + 1);
        // Filtered result is a subset of the mask; higher threshold removes more.
        prop_assert_eq!(big.intersection_count(&m), big.count());
        prop_assert!(bigger.count() <= big.count());
    }

    #[test]
    fn region_grow_result_is_subset_of_criterion(m in mask_strategy(), seed_frac in 0.0f64..1.0) {
        let d = m.dims();
        let series = TimeSeries::from_frames(vec![(0, ScalarVolume::zeros(d))]);
        let criterion = MaskCriterion::new(vec![m.clone()]).unwrap();
        let idx = ((d.len() - 1) as f64 * seed_frac) as usize;
        let (x, y, z) = d.coords(idx);
        let grown = grow_4d(&series, &criterion, &[(0, x, y, z)]).unwrap();
        // Whatever grew is inside the allowed mask.
        prop_assert_eq!(grown[0].intersection_count(&m), grown[0].count());
        // And if the seed was allowed, it is in the result, which is exactly
        // the seed's connected component.
        if m.get(x, y, z) {
            prop_assert!(grown[0].get(x, y, z));
            let l = ComponentLabels::label(&m, Connectivity::Six);
            let comp = l.component_mask(l.label_at(x, y, z));
            prop_assert_eq!(&grown[0], &comp);
        } else {
            prop_assert!(grown[0].is_empty_mask());
        }
    }

    #[test]
    fn more_seeds_grow_at_least_as_much(m in mask_strategy()) {
        let d = m.dims();
        let series = TimeSeries::from_frames(vec![(0, ScalarVolume::zeros(d))]);
        let criterion = MaskCriterion::new(vec![m.clone()]).unwrap();
        let one_seed = grow_4d(&series, &criterion, &[(0, 0, 0, 0)]).unwrap();
        let all_seeds: Vec<_> = (0..d.len())
            .map(|i| {
                let (x, y, z) = d.coords(i);
                (0usize, x, y, z)
            })
            .collect();
        let full = grow_4d(&series, &criterion, &all_seeds).unwrap();
        prop_assert!(full[0].count() >= one_seed[0].count());
        // Seeding everywhere recovers the entire criterion mask.
        prop_assert_eq!(&full[0], &m);
    }
}
