//! Abstract register values: scalars, region pointers, or uninitialized.

use core::fmt;

use crate::scalar::Scalar;

/// The abstract value of one register.
///
/// Pointers carry a *variable offset* tracked as a full [`Scalar`]
/// (tnum + bounds), so bit-level facts about an index — e.g. alignment
/// after a mask — flow into memory-access checks exactly as in the kernel,
/// where `bpf_reg_state.var_off` is a tnum.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RegValue {
    /// Never written on this path; any read is rejected.
    Uninit,
    /// An ordinary 64-bit value.
    Scalar(Scalar),
    /// A pointer into the 512-byte stack frame: address
    /// `STACK_TOP + offset` with `offset` usually negative.
    StackPtr {
        /// Signed byte offset from the top of the stack.
        offset: Scalar,
    },
    /// A pointer into the context buffer: address `CTX_BASE + offset`.
    CtxPtr {
        /// Byte offset from the start of the context.
        offset: Scalar,
    },
    /// A handle to a map, produced by the tagged `lddw` form
    /// `rD = map N` — the kernel's `CONST_PTR_TO_MAP`. Only usable as a
    /// helper argument; any dereference or arithmetic is rejected.
    MapHandle {
        /// Map id (an index into [`ebpf::DEFAULT_MAPS`]).
        map: u32,
    },
    /// A pointer to a value of map `map`, as returned by `map_lookup` —
    /// the kernel's `PTR_TO_MAP_VALUE[_OR_NULL]`. While `or_null` is
    /// set the pointer may be NULL and any dereference is rejected;
    /// a `== 0` / `!= 0` branch refines the non-zero edge to a
    /// dereferenceable `or_null: false` pointer.
    MapValuePtr {
        /// Map id (fixes the value size the pointer may roam over).
        map: u32,
        /// Whether the pointer may still be NULL (unchecked).
        or_null: bool,
        /// Byte offset from the start of the value.
        offset: Scalar,
    },
}

impl RegValue {
    /// An unknown scalar (the abstraction of "any 64-bit value").
    #[must_use]
    pub fn unknown_scalar() -> RegValue {
        RegValue::Scalar(Scalar::unknown())
    }

    /// Whether this value may be read at all.
    #[must_use]
    pub fn is_readable(self) -> bool {
        !matches!(self, RegValue::Uninit)
    }

    /// The scalar component if this is a scalar.
    #[must_use]
    pub fn as_scalar(self) -> Option<Scalar> {
        match self {
            RegValue::Scalar(s) => Some(s),
            _ => None,
        }
    }

    /// Whether this is a pointer value.
    #[must_use]
    pub fn is_pointer(self) -> bool {
        matches!(
            self,
            RegValue::StackPtr { .. }
                | RegValue::CtxPtr { .. }
                | RegValue::MapHandle { .. }
                | RegValue::MapValuePtr { .. }
        )
    }

    /// The shared shape of [`RegValue::union`] and [`RegValue::widen`]:
    /// same-kind values merge their scalars with `f`; everything else
    /// collapses to [`RegValue::Uninit`] (for mixed pointer kinds —
    /// reading such a register is rejected, which is sound). Map value
    /// pointers of the same map join offsets and *or* their `or_null`
    /// flags (may-be-NULL is the weaker fact).
    pub(crate) fn merge(self, other: RegValue, f: impl Fn(Scalar, Scalar) -> Scalar) -> RegValue {
        match (self, other) {
            (RegValue::Scalar(a), RegValue::Scalar(b)) => RegValue::Scalar(f(a, b)),
            (RegValue::StackPtr { offset: a }, RegValue::StackPtr { offset: b }) => {
                RegValue::StackPtr { offset: f(a, b) }
            }
            (RegValue::CtxPtr { offset: a }, RegValue::CtxPtr { offset: b }) => {
                RegValue::CtxPtr { offset: f(a, b) }
            }
            (RegValue::MapHandle { map: a }, RegValue::MapHandle { map: b }) if a == b => self,
            (
                RegValue::MapValuePtr {
                    map: a,
                    or_null: na,
                    offset: oa,
                },
                RegValue::MapValuePtr {
                    map: b,
                    or_null: nb,
                    offset: ob,
                },
            ) if a == b => RegValue::MapValuePtr {
                map: a,
                or_null: na || nb,
                offset: f(oa, ob),
            },
            _ => RegValue::Uninit,
        }
    }

    /// Join of two register values. Pointers join with pointers of the
    /// same region by joining offsets; everything else collapses to
    /// [`RegValue::Uninit`] or to a joined scalar.
    #[must_use]
    pub fn union(self, other: RegValue) -> RegValue {
        self.merge(other, Scalar::union)
    }

    /// [`RegValue::union`] without the reduction: the same kind rules,
    /// with the scalars joined componentwise and left unnormalized.
    pub(crate) fn raw_union(self, other: RegValue) -> RegValue {
        self.merge(other, Scalar::raw_join)
    }

    /// The scalar this value carries: its own, or its pointer offset.
    fn scalar_part(self) -> Option<Scalar> {
        match self {
            RegValue::Scalar(s)
            | RegValue::StackPtr { offset: s }
            | RegValue::CtxPtr { offset: s }
            | RegValue::MapValuePtr { offset: s, .. } => Some(s),
            RegValue::Uninit | RegValue::MapHandle { .. } => None,
        }
    }

    /// Whether the carried scalar, if any, is reduced.
    pub(crate) fn is_reduced(self) -> bool {
        self.scalar_part().map_or(true, Scalar::is_reduced)
    }

    /// The value with its carried scalar reduced.
    pub(crate) fn reduced(self) -> RegValue {
        let reduce = |s: Scalar| s.normalize().expect("a join of non-empty scalars");
        match self {
            RegValue::Scalar(s) => RegValue::Scalar(reduce(s)),
            RegValue::StackPtr { offset } => RegValue::StackPtr {
                offset: reduce(offset),
            },
            RegValue::CtxPtr { offset } => RegValue::CtxPtr {
                offset: reduce(offset),
            },
            RegValue::MapValuePtr {
                map,
                or_null,
                offset,
            } => RegValue::MapValuePtr {
                map,
                or_null,
                offset: reduce(offset),
            },
            RegValue::Uninit | RegValue::MapHandle { .. } => self,
        }
    }

    /// Widening `self ∇ newer` at a loop head: like [`RegValue::union`]
    /// but extrapolating with [`Scalar::widen`] so growing scalars (and
    /// growing pointer offsets) stabilize. Mismatched kinds collapse to
    /// [`RegValue::Uninit`], exactly as in the join — the top of the
    /// safety order, so termination is preserved.
    #[must_use]
    pub fn widen(self, newer: RegValue) -> RegValue {
        self.merge(newer, Scalar::widen)
    }

    /// Abstract-order test used for state-inclusion checks.
    #[must_use]
    pub fn is_subset_of(self, other: RegValue) -> bool {
        match (self, other) {
            // Uninit is the top of the "safety" order: any value may be
            // weakened to it (it only forbids reads).
            (_, RegValue::Uninit) => true,
            (RegValue::Scalar(a), RegValue::Scalar(b)) => a.is_subset_of(b),
            (RegValue::StackPtr { offset: a }, RegValue::StackPtr { offset: b })
            | (RegValue::CtxPtr { offset: a }, RegValue::CtxPtr { offset: b }) => a.is_subset_of(b),
            (RegValue::MapHandle { map: a }, RegValue::MapHandle { map: b }) => a == b,
            (
                RegValue::MapValuePtr {
                    map: a,
                    or_null: na,
                    offset: oa,
                },
                RegValue::MapValuePtr {
                    map: b,
                    or_null: nb,
                    offset: ob,
                },
            ) => {
                // A checked (non-null) pointer is covered by a may-be-null
                // one, never the reverse: `or_null` only forbids reads.
                a == b && (nb || !na) && oa.is_subset_of(ob)
            }
            _ => false,
        }
    }
}

impl fmt::Display for RegValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Pointer offsets read best signed (stack offsets are negative).
        fn offset(f: &mut fmt::Formatter<'_>, region: &str, s: &Scalar) -> fmt::Result {
            if let Some(c) = s.as_constant() {
                write!(f, "{region}{:+}", c as i64)
            } else {
                write!(f, "{region}+[{}, {}]", s.bounds().smin(), s.bounds().smax())
            }
        }
        match self {
            RegValue::Uninit => write!(f, "uninit"),
            RegValue::Scalar(s) => write!(f, "{s}"),
            RegValue::StackPtr { offset: o } => offset(f, "stack", o),
            RegValue::CtxPtr { offset: o } => offset(f, "ctx", o),
            RegValue::MapHandle { map } => write!(f, "map{map}"),
            RegValue::MapValuePtr {
                map,
                or_null,
                offset: o,
            } => {
                let region = format!("map{map}_value{}", if *or_null { "?" } else { "" });
                offset(f, &region, o)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_joins() {
        let a = RegValue::Scalar(Scalar::constant(1));
        let b = RegValue::Scalar(Scalar::constant(3));
        match a.union(b) {
            RegValue::Scalar(s) => {
                assert!(s.contains(1) && s.contains(3));
            }
            other => panic!("expected scalar, got {other:?}"),
        }
    }

    #[test]
    fn same_region_pointers_join_offsets() {
        let p = RegValue::StackPtr {
            offset: Scalar::constant((-8i64) as u64),
        };
        let q = RegValue::StackPtr {
            offset: Scalar::constant((-16i64) as u64),
        };
        match p.union(q) {
            RegValue::StackPtr { offset } => {
                assert!(offset.contains((-8i64) as u64));
                assert!(offset.contains((-16i64) as u64));
            }
            other => panic!("expected stack pointer, got {other:?}"),
        }
    }

    #[test]
    fn mixed_kinds_collapse_to_uninit() {
        let p = RegValue::StackPtr {
            offset: Scalar::constant(0),
        };
        let c = RegValue::CtxPtr {
            offset: Scalar::constant(0),
        };
        let s = RegValue::Scalar(Scalar::constant(0));
        assert_eq!(p.union(c), RegValue::Uninit);
        assert_eq!(p.union(s), RegValue::Uninit);
        assert_eq!(s.union(RegValue::Uninit), RegValue::Uninit);
    }

    #[test]
    fn order_respects_uninit_top() {
        let s = RegValue::Scalar(Scalar::constant(5));
        assert!(s.is_subset_of(RegValue::Uninit));
        assert!(!RegValue::Uninit.is_subset_of(s));
        assert!(s.is_subset_of(RegValue::unknown_scalar()));
        assert!(!RegValue::unknown_scalar().is_subset_of(s));
    }

    #[test]
    fn map_value_ptr_join_weakens_to_or_null() {
        let checked = RegValue::MapValuePtr {
            map: 0,
            or_null: false,
            offset: Scalar::constant(0),
        };
        let unchecked = RegValue::MapValuePtr {
            map: 0,
            or_null: true,
            offset: Scalar::constant(0),
        };
        assert_eq!(checked.union(unchecked), unchecked);
        assert_eq!(checked.union(checked), checked);
        // Different maps collapse (reading such a register is rejected).
        let other = RegValue::MapValuePtr {
            map: 1,
            or_null: false,
            offset: Scalar::constant(0),
        };
        assert_eq!(checked.union(other), RegValue::Uninit);
        assert_eq!(
            RegValue::MapHandle { map: 0 }.union(RegValue::MapHandle { map: 1 }),
            RegValue::Uninit
        );
        assert_eq!(
            RegValue::MapHandle { map: 1 }.union(RegValue::MapHandle { map: 1 }),
            RegValue::MapHandle { map: 1 }
        );
    }

    #[test]
    fn map_value_ptr_order_checked_below_or_null() {
        let checked = RegValue::MapValuePtr {
            map: 0,
            or_null: false,
            offset: Scalar::constant(4),
        };
        let unchecked = RegValue::MapValuePtr {
            map: 0,
            or_null: true,
            offset: Scalar::constant(4),
        };
        assert!(checked.is_subset_of(unchecked));
        assert!(!unchecked.is_subset_of(checked));
        assert!(checked.is_subset_of(RegValue::Uninit));
        assert!(!checked.is_subset_of(RegValue::unknown_scalar()));
        assert!(RegValue::MapHandle { map: 2 }.is_subset_of(RegValue::MapHandle { map: 2 }));
        assert!(!RegValue::MapHandle { map: 2 }.is_subset_of(RegValue::MapHandle { map: 3 }));
    }

    #[test]
    fn map_values_display_compactly() {
        assert_eq!(RegValue::MapHandle { map: 0 }.to_string(), "map0");
        let p = RegValue::MapValuePtr {
            map: 1,
            or_null: true,
            offset: Scalar::constant(0),
        };
        assert_eq!(p.to_string(), "map1_value?+0");
        let q = RegValue::MapValuePtr {
            map: 1,
            or_null: false,
            offset: Scalar::constant(8),
        };
        assert_eq!(q.to_string(), "map1_value+8");
    }

    #[test]
    fn readability_and_kind_predicates() {
        assert!(!RegValue::Uninit.is_readable());
        assert!(RegValue::unknown_scalar().is_readable());
        assert!(RegValue::StackPtr {
            offset: Scalar::constant(0)
        }
        .is_pointer());
        assert!(RegValue::unknown_scalar().as_scalar().is_some());
        assert!(RegValue::Uninit.as_scalar().is_none());
    }
}
