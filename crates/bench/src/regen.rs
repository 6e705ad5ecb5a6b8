//! Regenerable measured tables for EXPERIMENTS.md.
//!
//! EXPERIMENTS.md brackets each machine-generated table with marker
//! comments:
//!
//! ```text
//! <!-- generated:fig14 -->
//! | bench | Trans-FW | ... |
//! <!-- /generated:fig14 -->
//! ```
//!
//! Every entry of the figure registry ([`figures::all`]) has one such pair,
//! named after the entry. `hdpat-sim regen-experiments` re-runs the backing
//! sweeps and splices the fresh Markdown between the markers, so the
//! measured numbers in the doc are a build artifact instead of hand-edited
//! text; `--check` (the CI doc drift gate, see ci.sh) verifies a
//! regeneration changes nothing. Only the marked blocks are touched — the
//! surrounding prose (paper claims, verdicts, caveats) stays hand-written
//! and cites measured numbers by the row they sit in.

use hdpat::experiments::SweepCtx;
use wsg_workloads::Scale;

use crate::figures;

/// One generated block per [`figures::all`] entry, in registry order:
/// `(marker id, Markdown body)`, the id being the entry's name.
///
/// The backing sweeps share `ctx`'s run cache, so a point common to several
/// figures (most prominently the Naive baseline) is simulated once.
pub fn blocks(ctx: &SweepCtx, scale: Scale) -> Vec<(&'static str, String)> {
    figures::all(ctx, scale)
        .into_iter()
        .map(|(name, table)| (name, table().to_markdown()))
        .collect()
}

/// Replaces the body between `<!-- generated:id -->` and
/// `<!-- /generated:id -->` in `doc` with `body`.
///
/// # Errors
///
/// Returns a message naming the missing marker if either delimiter is
/// absent or out of order.
pub fn splice(doc: &str, id: &str, body: &str) -> Result<String, String> {
    let begin = format!("<!-- generated:{id} -->");
    let end = format!("<!-- /generated:{id} -->");
    let begin_at = doc
        .find(&begin)
        .ok_or_else(|| format!("marker `{begin}` not found"))?;
    let content_start = begin_at + begin.len();
    let end_at = doc[content_start..]
        .find(&end)
        .map(|i| content_start + i)
        .ok_or_else(|| format!("marker `{end}` not found after `{begin}`"))?;
    Ok(format!(
        "{}\n{}{}",
        &doc[..content_start],
        body,
        &doc[end_at..]
    ))
}

/// Splices every `(id, body)` pair into `doc`.
///
/// # Errors
///
/// Propagates the first [`splice`] failure.
pub fn apply(doc: &str, blocks: &[(&'static str, String)]) -> Result<String, String> {
    let mut out = doc.to_string();
    for (id, body) in blocks {
        out = splice(&out, id, body)?;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    const DOC: &str = "intro\n<!-- generated:fig14 -->\nstale\n<!-- /generated:fig14 -->\ntail\n";

    #[test]
    fn splice_replaces_only_the_block() {
        let out = splice(DOC, "fig14", "| fresh |\n").unwrap();
        assert_eq!(
            out,
            "intro\n<!-- generated:fig14 -->\n| fresh |\n<!-- /generated:fig14 -->\ntail\n"
        );
    }

    #[test]
    fn splice_is_idempotent() {
        let once = splice(DOC, "fig14", "| fresh |\n").unwrap();
        let twice = splice(&once, "fig14", "| fresh |\n").unwrap();
        assert_eq!(once, twice);
    }

    #[test]
    fn missing_markers_are_reported() {
        assert!(splice(DOC, "fig99", "x\n").unwrap_err().contains("fig99"));
        let unterminated = "<!-- generated:fig14 -->\nno end";
        assert!(splice(unterminated, "fig14", "x\n")
            .unwrap_err()
            .contains("/generated:fig14"));
    }

    #[test]
    fn experiments_md_has_markers_for_every_registry_entry() {
        let doc = include_str!("../../../EXPERIMENTS.md");
        let ctx = SweepCtx::new(1);
        for (name, _) in figures::all(&ctx, Scale::Unit) {
            if let Err(e) = splice(doc, name, "") {
                panic!("EXPERIMENTS.md: {e}");
            }
        }
    }

    #[test]
    fn apply_splices_every_block() {
        let doc = format!("{DOC}<!-- generated:fig15 -->\nold\n<!-- /generated:fig15 -->\n");
        let out = apply(
            &doc,
            &[
                ("fig14", "| a |\n".to_string()),
                ("fig15", "| b |\n".to_string()),
            ],
        )
        .unwrap();
        assert!(out.contains("| a |"));
        assert!(out.contains("| b |"));
        assert!(!out.contains("stale"));
        assert!(!out.contains("old"));
    }
}
