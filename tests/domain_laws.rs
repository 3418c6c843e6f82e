//! The abstraction-layer acceptance suite: every shipped domain is a
//! lawful lattice Galois-connected to sets of machine words, and the
//! *same* generic bounded-verification campaign (soundness per Eqn. 11 +
//! optimality vs `α ∘ f ∘ γ`) passes for all of them from one code path.

use bitwise_domain::KnownBits;
use domain::laws::{
    assert_constant_law, assert_galois_soundness, assert_lattice_laws, assert_refine_laws,
    assert_sampling_sound,
};
use domain::{AbstractDomain, RefineFrom};
use interval_domain::{sign_lattice, Bounds};
use tnum::Tnum;
use tnum_verify::campaign::{run_campaign, CampaignConfig};
use verifier::{Product, Scalar};

// --- Lattice laws (join/meet idempotence, commutativity, absorption,
// --- ⊑ consistency) for all three domains at widths ≤ 6. ---------------

#[test]
fn tnum_lattice_laws_widths_up_to_4() {
    for w in 1..=4 {
        assert_lattice_laws::<Tnum>(w);
    }
}

#[test]
fn knownbits_lattice_laws_widths_up_to_4() {
    for w in 1..=4 {
        assert_lattice_laws::<KnownBits>(w);
    }
}

#[test]
fn bounds_lattice_laws_widths_up_to_3() {
    // The bounds enumeration is quadratic in 2^w; width 3 already checks
    // 36^2 pairs of intervals.
    for w in 1..=3 {
        assert_lattice_laws::<Bounds>(w);
    }
}

// --- Galois soundness: x ∈ γ(α({x})), membership/enumeration closure,
// --- reductivity of α — for all three domains. ------------------------

#[test]
fn tnum_galois_soundness_width_6() {
    assert_galois_soundness::<Tnum>(6);
}

#[test]
fn knownbits_galois_soundness_width_6() {
    assert_galois_soundness::<KnownBits>(6);
}

#[test]
fn bounds_galois_soundness_width_5() {
    assert_galois_soundness::<Bounds>(5);
}

#[test]
fn width64_sampling_is_sound_for_all_domains() {
    assert_sampling_sound::<Tnum>(4_000, 0xA);
    assert_sampling_sound::<KnownBits>(4_000, 0xB);
    assert_sampling_sound::<Bounds>(4_000, 0xC);
}

// --- Direct constants: `constant(x)` is α({x}) at every width-8 value,
// --- the 64-bit edges and seeded words (Tnum and Bounds override it). --

#[test]
fn constants_are_singleton_abstractions_for_all_domains() {
    assert_constant_law::<Tnum>(8, 4_000, 0xC0);
    assert_constant_law::<KnownBits>(8, 4_000, 0xC1);
    assert_constant_law::<Bounds>(8, 4_000, 0xC2);
}

// --- The acceptance criterion: one campaign, three domains. ------------

#[test]
fn generic_campaign_validates_all_three_domains() {
    let config = |width| CampaignConfig {
        width,
        optimality: true,
        spot_pairs: 500,
        spot_members: 8,
        seed: 0xC60_2022,
    };
    let t = run_campaign::<Tnum>(config(5));
    let k = run_campaign::<KnownBits>(config(5));
    let b = run_campaign::<Bounds>(config(4));
    for r in [&t, &k, &b] {
        assert!(r.all_sound(), "{}: {r:?}", r.domain);
        // Every operator of the suite ran through the same catalog.
        let names: Vec<&str> = r.entries.iter().map(|e| e.op).collect();
        assert_eq!(
            names,
            [
                "add", "sub", "mul", "and", "or", "xor", "lshift", "rshift", "arshift", "div",
                "mod"
            ]
        );
    }
    // The two value/mask encodings are isomorphic: identical verdicts.
    for (et, ek) in t.entries.iter().zip(&k.entries) {
        assert_eq!(et.optimal, ek.optimal, "{}", et.op);
        assert_eq!(et.member_checks, ek.member_checks, "{}", et.op);
    }
    // The theorems the paper proves, read off the tnum campaign: add/sub
    // and the bitwise operators are optimal, multiplication is not.
    let verdict = |name: &str| {
        t.entries
            .iter()
            .find(|e| e.op == name)
            .expect("operator in suite")
            .optimal
    };
    for optimal_op in ["add", "sub", "and", "or", "xor"] {
        assert_eq!(
            verdict(optimal_op),
            Some(true),
            "{optimal_op} must be optimal"
        );
    }
    assert_eq!(
        verdict("mul"),
        Some(false),
        "our_mul is sound but not optimal (§III-C)"
    );
}

// --- The reduced product is domain-generic: Scalar is just one instance.

#[test]
fn scalar_is_the_generic_product_instance() {
    // Type-level check: this only compiles because Scalar == Product<..>.
    let s: Product<Tnum, Bounds> = Scalar::constant(42);
    assert_eq!(s.as_constant(), Some(42));
    // The RefineFrom hooks drive the same sync the kernel performs.
    let t: Tnum = "xx0".parse().unwrap();
    let refined = Bounds::FULL.refine_from(&t).unwrap();
    assert_eq!(refined.umax(), 6);
    let p = Product::from_parts(t, Bounds::FULL).unwrap();
    assert_eq!(p.second(), refined);
}

// --- The RefineFrom laws, both directions of tnum ↔ bounds. ------------

#[test]
fn refine_laws_exhaustive_at_width_6() {
    // Every member of a width-6 element is below 64, so probing 0..64
    // makes soundness and the ⊥ law exhaustive here.
    let tnums = <Tnum as AbstractDomain>::enumerate_at_width(6);
    let bounds = <Bounds as AbstractDomain>::enumerate_at_width(6);
    let probes: Vec<u64> = (0..64).collect();
    assert_eq!((tnums.len(), bounds.len()), (729, 2080));
    for cov in [
        assert_refine_laws(&bounds, &tnums, &probes),
        assert_refine_laws(&tnums, &bounds, &probes),
    ] {
        assert_eq!(cov.pairs, 729 * 2080);
        assert!(0 < cov.fixpoints && 0 < cov.contradictions, "{cov:?}");
        assert!(cov.fixpoints + cov.contradictions < cov.pairs, "{cov:?}");
    }
}

#[test]
fn refine_laws_on_the_sign_boundary_lattice() {
    // Width 6 never sets bit 63, so the signed view there is a copy of
    // the unsigned one; this 64-bit lattice crosses the sign boundary.
    // The probes are every member of every lattice tnum, so soundness
    // and the ⊥ law are exhaustive here too.
    let tnums = sign_lattice::tnums();
    let bounds = sign_lattice::bounds();
    let probes = sign_lattice::probes();
    assert_eq!(tnums.len(), 729);
    for cov in [
        assert_refine_laws(&bounds, &tnums, &probes),
        assert_refine_laws(&tnums, &bounds, &probes),
    ] {
        assert_eq!(cov.pairs, tnums.len() * bounds.len());
        assert!(0 < cov.fixpoints && 0 < cov.contradictions, "{cov:?}");
        assert!(cov.fixpoints + cov.contradictions < cov.pairs, "{cov:?}");
    }
}

#[test]
fn refine_laws_on_unreduced_lattice_bounds() {
    // Widening leaves bounds undeduced, and the reduced product refines
    // them as they are, so the bounds side must keep its laws (and its
    // exact fixpoint test) on raw view pairs too — contradictory ones
    // included. Paired with the lattice tnums over base 0, which keep
    // every shape of free trit near 0, 2^62 and 2^63.
    let raw = sign_lattice::views();
    let tnums: Vec<Tnum> = sign_lattice::tnums()
        .into_iter()
        .filter(|t| (t.value() | t.mask()) & !sign_lattice::FREE_BITS == 0)
        .collect();
    assert_eq!((raw.len(), tnums.len()), (153 * 153, 243));
    let cov = assert_refine_laws(&raw, &tnums, &sign_lattice::probes());
    assert!(0 < cov.fixpoints && 0 < cov.contradictions, "{cov:?}");
    assert!(cov.fixpoints + cov.contradictions < cov.pairs, "{cov:?}");
}

#[test]
fn product_laws_on_random_scalars() {
    // Join/meet/order coherence of the product, sampled at width 64.
    let mut rng = domain::rng::SplitMix64::new(0x77);
    for _ in 0..500 {
        let a = Scalar::from_tnum(Tnum::random(&mut rng));
        let b = Scalar::from_tnum(Tnum::random(&mut rng));
        let j = a.union(b);
        assert!(a.is_subset_of(j) && b.is_subset_of(j));
        assert!(a.is_subset_of(a));
        match a.intersect(b) {
            Some(m) => {
                assert!(m.is_subset_of(a) && m.is_subset_of(b));
            }
            None => {
                let x = a.tnum().random_member(&mut rng);
                assert!(!b.contains(x) || !a.contains(x));
            }
        }
    }
}
