//! Correctness checks every benchmark run makes. A failed check fails the
//! run; it is never reported as a metric.

use crate::workload::{Kind, Spec};
use smartds::cluster::Cluster;
use smartds::Workload;

/// Sealed containers audited per services run. Each audit tries every
/// pool segment as the decryption tweak, so the sample is bounded.
const SEALED_AUDIT: usize = 64;

/// Audits the blocks `cluster` stored. Returns a one-line summary, or the
/// reason the audit failed.
pub fn audit_stored(kind: Kind, spec: &Spec, cluster: &Cluster) -> Result<String, String> {
    match kind {
        Kind::DenseWrite | Kind::RackChaos => {
            let (ok, corrupt) = cluster.verify_stored();
            if corrupt > 0 || ok == 0 {
                return Err(format!("stored-block audit: {ok} ok, {corrupt} corrupt"));
            }
            Ok(format!("{ok} stored blocks decompress to full payloads"))
        }
        // `verify_stored` counts every sealed container as corrupt, so a
        // services run unseals a sample against the pool instead.
        Kind::ServicesMixed => audit_sealed(spec, cluster),
    }
}

fn audit_sealed(spec: &Spec, cluster: &Cluster) -> Result<String, String> {
    let svc = cluster
        .services()
        .ok_or("services_mixed ran without data services")?;
    let profile = spec
        .cfg
        .corpus_profile
        .as_ref()
        .ok_or("services_mixed ran without its corpus profile")?;
    let cfg = &spec.cfg;
    let pool = Workload::with_profile(
        hwmodel::consts::BLOCK_SIZE,
        cfg.pool_blocks,
        cfg.seed,
        profile,
    );
    let containers = cluster
        .servers
        .iter()
        .filter(|s| s.is_alive())
        .flat_map(|s| s.chunks())
        .flat_map(|(_, chunk)| {
            chunk
                .snapshot()
                .iter()
                .map(|(_, sb)| sb.clone())
                .collect::<Vec<_>>()
        })
        .take(SEALED_AUDIT);
    let mut audited = 0;
    for sb in containers {
        let container = sb
            .expand()
            .map_err(|e| format!("sealed container does not expand: {e:?}"))?;
        let matches = (0..cfg.pool_blocks)
            .any(|seg| svc.unseal(seg as u64, &container).as_deref() == Some(pool.payload(seg)));
        if !matches {
            return Err(format!(
                "sealed container {audited} unseals to no pool payload"
            ));
        }
        audited += 1;
    }
    if audited == 0 {
        return Err("no sealed containers stored".into());
    }
    Ok(format!(
        "{audited} sealed containers unseal to pool payloads"
    ))
}
