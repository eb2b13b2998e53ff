//! Centralized, audited message-tag allocation for the whole workspace.
//!
//! Every tag on the simulated wire comes from one of two disjoint
//! namespaces:
//!
//! - **Point-to-point kinds** — `tag = KIND | payload` with the kind id in
//!   bits 48..=52 and a caller payload (supernode / panel / step index)
//!   below bit 48. Declared here as `T_*` constants and listed in
//!   [`REGISTRY`].
//! - **Collective-internal tags** — bit 62 ([`COLL_TAG`]) set, a phase id
//!   in bits 57..=59, a round counter in bits 53..=56, and the caller's
//!   base tag below bit 53 (composed by [`coll_tag`]). A collective's
//!   caller base is a `T_*` kind and payload like any other; the composed
//!   tag always carries bit 62, so it never meets the same kind sent point
//!   to point.
//!
//! Earlier revisions (pre-PR 4) derived collective sub-tags arithmetically
//! (`tag + round`, `tag ^ 0x5555`), which aliased sibling collectives with
//! nearby base tags. The bit-field layout makes the sub-namespaces disjoint
//! by construction; [`audit`] re-proves the whole registry's disjointness
//! and is invoked statically by `commplan`'s plan checks, promoting the
//! PR-4 runtime fix to a plan-time guarantee.

/// Bit position of the point-to-point kind field; the payload (supernode
/// index, panel index, refinement step, ...) must stay below this.
pub const KIND_SHIFT: u32 = 48;
/// Mask of the payload bits of a point-to-point tag.
pub const PAYLOAD_MASK: u64 = (1 << KIND_SHIFT) - 1;

// --- Point-to-point kinds (tag = T_* | payload) ----------------------------

/// 2D panel factorization: diagonal block broadcast along the owner row.
pub const T_DIAG_ROW: u64 = 1 << KIND_SHIFT;
/// 2D panel factorization: diagonal block broadcast down the owner column.
pub const T_DIAG_COL: u64 = 2 << KIND_SHIFT;
/// 2D panel factorization: packed L-panel broadcast along each row.
pub const T_LPANEL: u64 = 3 << KIND_SHIFT;
/// 2D panel factorization: packed U-panel broadcast down each column.
pub const T_UPANEL: u64 = 4 << KIND_SHIFT;
/// 2D triangular solve: forward-sweep partial-sum reduction.
pub const T_FWD_RED: u64 = 5 << KIND_SHIFT;
/// 2D triangular solve: forward-sweep solution broadcast.
pub const T_FWD_BC: u64 = 6 << KIND_SHIFT;
/// 2D triangular solve: backward-sweep partial-sum reduction.
pub const T_BWD_RED: u64 = 7 << KIND_SHIFT;
/// 2D triangular solve: backward-sweep solution broadcast.
pub const T_BWD_BC: u64 = 8 << KIND_SHIFT;
/// 3D factorization: z-line ancestor reduction (Algorithm 1's reduce phase).
pub const T_REDUCE: u64 = 9 << KIND_SHIFT;
/// Iterative refinement: an owner's solved segments to a rank whose residual
/// rows read them (`T_X_HALO | step`).
pub const T_X_HALO: u64 = 10 << KIND_SHIFT;
/// The solution's owned segments gathered to world rank 0.
pub const T_X_GATHER: u64 = 11 << KIND_SHIFT;
/// 3D triangular solve: ancestor partial-sum accumulation up the z-line.
pub const T_ACC_RED: u64 = 12 << KIND_SHIFT;
/// 3D triangular solve: solved ancestor segments pushed down the z-line.
pub const T_X_DOWN: u64 = 13 << KIND_SHIFT;

// --- Collective-internal tag layout ----------------------------------------

/// High-bit namespace for collective-internal tags: separates collective
/// from user point-to-point traffic on the same communicator.
pub const COLL_TAG: u64 = 1 << 62;

/// Phase-id field: bits 57..=59.
pub const PHASE_SHIFT: u32 = 57;
/// Broadcast: `Rank::bcast` and `Rank::bcast_among`.
pub const PH_BCAST: u64 = 1 << PHASE_SHIFT;
/// Reduce-to-root: `Rank::reduce_sum` and `Rank::reduce_sum_among`.
pub const PH_REDUCE: u64 = 2 << PHASE_SHIFT;
/// Dissemination-barrier rounds (combined with the round field).
pub const PH_BARRIER: u64 = 6 << PHASE_SHIFT;

/// Per-round counter field for the barrier: bits 53..=56, zero for every
/// other collective. 4 bits bound `ceil(log2 p)` rounds at `p <= 2^16`.
pub const ROUND_SHIFT: u32 = 53;
pub const MAX_ROUNDS: u64 = 16;

/// Compose a collective-internal tag: namespace bit, phase id, caller tag.
/// The caller's base tag must fit below the round field.
pub fn coll_tag(phase: u64, tag: u64) -> u64 {
    assert!(
        tag < 1 << ROUND_SHIFT,
        "collective base tag {tag:#x} overflows into the round/phase namespace"
    );
    COLL_TAG | phase | tag
}

// --- Registry + audit -------------------------------------------------------

/// One declared tag kind.
#[derive(Clone, Copy, Debug)]
pub struct TagDecl {
    pub name: &'static str,
    pub base: u64,
}

/// Every tag base the workspace is allowed to put on the wire. New
/// subsystems must register here; [`audit`] fails on any overlap.
pub const REGISTRY: &[TagDecl] = &[
    TagDecl {
        name: "T_DIAG_ROW",
        base: T_DIAG_ROW,
    },
    TagDecl {
        name: "T_DIAG_COL",
        base: T_DIAG_COL,
    },
    TagDecl {
        name: "T_LPANEL",
        base: T_LPANEL,
    },
    TagDecl {
        name: "T_UPANEL",
        base: T_UPANEL,
    },
    TagDecl {
        name: "T_FWD_RED",
        base: T_FWD_RED,
    },
    TagDecl {
        name: "T_FWD_BC",
        base: T_FWD_BC,
    },
    TagDecl {
        name: "T_BWD_RED",
        base: T_BWD_RED,
    },
    TagDecl {
        name: "T_BWD_BC",
        base: T_BWD_BC,
    },
    TagDecl {
        name: "T_REDUCE",
        base: T_REDUCE,
    },
    TagDecl {
        name: "T_ACC_RED",
        base: T_ACC_RED,
    },
    TagDecl {
        name: "T_X_DOWN",
        base: T_X_DOWN,
    },
    TagDecl {
        name: "T_X_HALO",
        base: T_X_HALO,
    },
    TagDecl {
        name: "T_X_GATHER",
        base: T_X_GATHER,
    },
];

pub(crate) const PHASES: &[(u64, &str)] = &[
    (PH_BCAST, "bcast"),
    (PH_REDUCE, "reduce"),
    (PH_BARRIER, "barrier"),
];

/// Statically audit the tag registry: every kind is aligned, nonzero, low
/// enough that its whole payload range can also be a collective's caller
/// tag (below the round field), and pairwise distinct; phase ids are
/// pairwise distinct and clear of the round/caller fields. Returns the first
/// violation as an error.
pub fn audit() -> Result<(), String> {
    for (i, d) in REGISTRY.iter().enumerate() {
        if d.base == 0 {
            return Err(format!("{}: zero kind", d.name));
        }
        if d.base & PAYLOAD_MASK != 0 {
            return Err(format!("{}: kind overlaps the payload field", d.name));
        }
        // The whole payload range [base, base | PAYLOAD_MASK] must stay
        // below the round field; since the base's low bits are zero
        // (checked above) this reduces to the base comparison.
        if d.base >= 1 << ROUND_SHIFT {
            return Err(format!("{}: kind overflows into the round field", d.name));
        }
        if let Some(e) = REGISTRY[i + 1..].iter().find(|e| e.base == d.base) {
            return Err(format!("duplicate kind: {} vs {}", d.name, e.name));
        }
    }
    let round_mask = (MAX_ROUNDS - 1) << ROUND_SHIFT;
    for (i, &(pa, na)) in PHASES.iter().enumerate() {
        if pa == 0 || pa & round_mask != 0 || pa & ((1 << ROUND_SHIFT) - 1) != 0 || pa >= COLL_TAG {
            return Err(format!("phase {na}: id {pa:#x} escapes the phase field"));
        }
        for &(pb, nb) in &PHASES[i + 1..] {
            if pa == pb {
                return Err(format!("duplicate phase id: {na} vs {nb}"));
            }
        }
    }
    Ok(())
}

/// Human-readable description of a wire tag for diagnostics: names the
/// declared kind (or collective phase + base) and the payload bits.
pub fn describe(tag: u64) -> String {
    if tag & COLL_TAG != 0 {
        let phase = tag & (0b111 << PHASE_SHIFT);
        let round = (tag >> ROUND_SHIFT) & (MAX_ROUNDS - 1);
        let base = tag & ((1 << ROUND_SHIFT) - 1);
        let pname = PHASES
            .iter()
            .find(|&&(p, _)| p == phase)
            .map_or("?", |&(_, n)| n);
        format!(
            "coll:{pname} base={}|{:#x} round={round}",
            kind_name(base),
            base & PAYLOAD_MASK
        )
    } else {
        format!("p2p:{}|{:#x}", kind_name(tag), tag & PAYLOAD_MASK)
    }
}

/// The registered name of `tag`'s kind, or `?`.
fn kind_name(tag: u64) -> &'static str {
    let kind = tag & !PAYLOAD_MASK;
    REGISTRY
        .iter()
        .find(|d| d.base == kind)
        .map_or("?", |d| d.name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_audit_passes() {
        audit().expect("tag registry must be collision-free");
    }

    #[test]
    fn describe_names_known_tags() {
        assert_eq!(describe(T_REDUCE | 17), "p2p:T_REDUCE|0x11");
        assert!(describe(coll_tag(PH_BCAST, T_LPANEL | 3)).contains("bcast"));
        assert_eq!(
            describe(coll_tag(PH_REDUCE, T_FWD_RED | 5)),
            "coll:reduce base=T_FWD_RED|0x5 round=0"
        );
    }
}
