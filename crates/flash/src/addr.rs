//! Physical address types.
//!
//! Physical page numbers ([`Ppn`]) are flat `u64` indices into the device's
//! page space; block ids ([`BlockId`]) are flat `u32` indices into its block
//! space. Both are plain integers rather than rich newtypes because they are
//! used as direct indices into dense per-page/per-block tables on the
//! simulator's hot path; [`crate::Geometry`] owns all conversions between
//! them.

/// Flat physical page number: `block_id * pages_per_block + page_offset`.
pub type Ppn = u64;

/// Flat physical block id.
pub type BlockId = u32;

/// Page offset within its block (`0..pages_per_block`).
pub type PageOffset = u32;

/// Sentinel for "no physical page" (unmapped LPN, empty slot).
pub const NO_PPN: Ppn = Ppn::MAX;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_ppn_is_distinct_from_any_real_ppn() {
        // Real devices in this workspace are far below 2^63 pages.
        assert_eq!(NO_PPN, u64::MAX);
    }
}
