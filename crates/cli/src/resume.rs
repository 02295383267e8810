//! `resume FILE`: finish a checkpointed `simulate --checkpoint` run.

use crate::args::parse_backoff;
use crate::simulate::{finish_telemetry, session_output, TelemetryArgs};
use crate::{Args, CliError};
use xtree_sim::telemetry::{MetricsSink, Tee, TraceRecorder};
use xtree_sim::{decode_checkpoint, RecoveryPolicy, Session, XTreeHost};
use xtree_trees::TreeFamily;

pub(crate) const USAGE: &str = "FILE [--workload W|all] [--trace FILE] [--verify-trace FILE] [--metrics FILE] [--metrics-format jsonl|prom] [--json]";

/// `resume FILE`: continue a checkpointed run to completion, appending to
/// the trace stream stored inside the checkpoint.
pub(crate) fn run(a: &Args) -> Result<String, CliError> {
    let path = a
        .positionals()
        .first()
        .map(String::as_str)
        .ok_or("resume: missing checkpoint path (usage: xtree-cli resume FILE)")?;
    let bytes = std::fs::read(path).map_err(|e| CliError::Io(format!("resume {path}: {e}")))?;
    let ck =
        decode_checkpoint(&bytes).map_err(|e| CliError::Runtime(format!("resume {path}: {e}")))?;
    let cfg = xtree_json::from_str(&ck.config)
        .map_err(|e| format!("resume {path}: bad config blob: {e}"))?;
    let family_name = cfg["family"]
        .as_str()
        .ok_or("resume: config lacks `family`")?
        .to_string();
    let nodes = cfg["nodes"]
        .as_u64()
        .ok_or("resume: config lacks `nodes`")? as usize;
    let seed = cfg["seed"].as_u64().ok_or("resume: config lacks `seed`")?;
    let recover = cfg["recover"].as_bool().unwrap_or(false);
    let policy = if recover {
        let default = RecoveryPolicy::default();
        Some(RecoveryPolicy {
            max_retries: cfg["max_retries"].as_u64().unwrap_or(8) as u32,
            backoff: match cfg["backoff"].as_str() {
                Some(spec) => parse_backoff(spec)?,
                None => default.backoff,
            },
            ..default
        })
    } else {
        None
    };
    let family = TreeFamily::parse(&family_name)
        .ok_or_else(|| format!("resume: unknown family `{family_name}` in checkpoint"))?;
    let tree = family.generate_seeded(nodes, seed);
    let net = XTreeHost::new(ck.embedding.height);
    let mut trace = TraceRecorder::resume(ck.trace)
        .map_err(|e| CliError::Runtime(format!("resume {path}: trace: {e}")))?;
    let mut met = MetricsSink::new();
    let mut session = Session::resume(&net, &tree, ck.embedding, policy, &ck.session)
        .map_err(|e| CliError::Runtime(format!("resume {path}: {e}")))?;
    session
        .run_with(usize::MAX, &mut Tee(&mut trace, &mut met))
        .map_err(|e| CliError::Runtime(e.to_string()))?;
    let tel = TelemetryArgs::parse(a)?;
    let telemetry = match &tel {
        Some(t) => Some(finish_telemetry(&net, t, &trace, &mut met)?),
        None => None,
    };
    let origin = format!("resumed from {path}");
    session_output(
        a,
        &family.label(),
        nodes,
        &origin,
        session.reports(),
        session.totals(),
        recover,
        telemetry.as_ref(),
    )
}
