//! The compressor contract shared by ISUM and all baselines.

use isum_common::Result;
use isum_workload::{CompressedWorkload, Workload};

/// A workload compression algorithm: selects `k` weighted queries from a
/// workload (Problem 1 of the paper).
///
/// `Send + Sync` is part of the contract: the experiments harness
/// evaluates independent methods concurrently through
/// `isum_exec::par_map`, so a compressor must not hold thread-affine state
/// (interior mutability, if any, must be synchronized).
pub trait Compressor: Send + Sync {
    /// Display name used in experiment reports (e.g. "ISUM", "GSUM").
    fn name(&self) -> String;

    /// Selects `k` queries with weights.
    ///
    /// # Errors
    /// `InvalidConfig` when `k == 0` or the workload is empty. `k ≥ n`
    /// returns all queries (with weights still computed).
    fn compress(&self, workload: &Workload, k: usize) -> Result<CompressedWorkload>;
}

/// Validates common preconditions; shared by all implementations.
pub fn validate(workload: &Workload, k: usize) -> Result<()> {
    if k == 0 {
        return Err(isum_common::Error::InvalidConfig("k must be positive".into()));
    }
    if workload.is_empty() {
        return Err(isum_common::Error::InvalidConfig("empty workload".into()));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use isum_catalog::CatalogBuilder;

    #[test]
    fn validate_rejects_bad_inputs() {
        let catalog = CatalogBuilder::new().table("t", 10).col_key("a").finish().unwrap().build();
        let w = Workload::from_sql(catalog, &["SELECT a FROM t"]).unwrap();
        assert!(validate(&w, 0).is_err());
        assert!(validate(&w, 1).is_ok());
        let empty = Workload::from_sql(
            CatalogBuilder::new().table("t", 1).col_key("a").finish().unwrap().build(),
            &Vec::<String>::new(),
        )
        .unwrap();
        assert!(validate(&empty, 1).is_err());
    }
}
