//! Ops attempted, succeeded and failed per phase. A failed correctness
//! check counts as a failed op of the phase it checks.

use crate::json::Json;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    Prefill,
    Decode,
    Commit,
    Checkpoint,
    Recover,
    Sim,
    /// Checks on the trace itself (the layer-sum band).
    Trace,
    /// Checks on the result line (every metric present and finite).
    Report,
}

impl Phase {
    pub const ALL: [Phase; 8] = [
        Phase::Prefill,
        Phase::Decode,
        Phase::Commit,
        Phase::Checkpoint,
        Phase::Recover,
        Phase::Sim,
        Phase::Trace,
        Phase::Report,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Phase::Prefill => "prefill",
            Phase::Decode => "decode",
            Phase::Commit => "commit",
            Phase::Checkpoint => "checkpoint",
            Phase::Recover => "recover",
            Phase::Sim => "sim",
            Phase::Trace => "trace",
            Phase::Report => "report",
        }
    }
}

/// Failure messages kept in the report; the counts stay exact.
const MAX_MESSAGES: usize = 16;

#[derive(Clone, Debug, Default)]
pub struct Ledger {
    attempted: [u64; Phase::ALL.len()],
    failed: [u64; Phase::ALL.len()],
    messages: Vec<String>,
}

impl Ledger {
    /// Records `n` ops of `phase` that completed.
    pub fn ops(&mut self, phase: Phase, n: u64) {
        self.attempted[phase as usize] += n;
    }

    /// Records one op of `phase` whose check is `ok`.
    pub fn check(&mut self, phase: Phase, ok: bool, what: impl FnOnce() -> String) {
        self.attempted[phase as usize] += 1;
        self.fail_unless(phase, ok, what);
    }

    /// Marks one already-counted op of `phase` failed unless `ok`.
    pub fn fail_unless(&mut self, phase: Phase, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failed[phase as usize] += 1;
            if self.messages.len() < MAX_MESSAGES {
                self.messages.push(format!("{}: {}", phase.name(), what()));
            }
        }
    }

    pub fn attempted(&self) -> u64 {
        self.attempted.iter().sum()
    }

    pub fn failed(&self) -> u64 {
        self.failed.iter().sum()
    }

    pub fn to_json(&self) -> Json {
        let mut phases = Json::obj();
        for p in Phase::ALL {
            let (a, f) = (self.attempted[p as usize], self.failed[p as usize]);
            phases.set(
                p.name(),
                Json::obj()
                    .with("attempted", a)
                    .with("succeeded", a - f.min(a))
                    .with("failed", f),
            );
        }
        Json::obj().with("phases", phases).with(
            "failures",
            self.messages
                .iter()
                .map(|m| Json::from(m.as_str()))
                .collect::<Vec<_>>(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failed_checks_count_against_their_phase() {
        let mut l = Ledger::default();
        l.ops(Phase::Decode, 10);
        l.check(Phase::Recover, true, || unreachable!());
        l.check(Phase::Recover, false, || "mismatch".into());
        assert_eq!(l.attempted(), 12);
        assert_eq!(l.failed(), 1);
        assert!(l.to_json().render().contains("recover: mismatch"));
    }
}
