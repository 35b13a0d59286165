//! Operations attempted and failed, in the form the run's last line
//! reports them.

/// Counts every operation and output check; a run with any failure is
/// not correct.
#[derive(Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    /// Log lines the parser refused, a subset of `failed`.
    pub parse_errors: u64,
    /// The first few failure descriptions, for the human-readable report.
    pub messages: Vec<String>,
}

const MAX_MESSAGES: usize = 20;

impl Checks {
    /// Counts `attempted` operations of which `failed` failed.
    pub fn count(&mut self, attempted: u64, failed: u64, describe: impl FnOnce() -> String) {
        self.attempted += attempted;
        self.failed += failed;
        if failed > 0 && self.messages.len() < MAX_MESSAGES {
            self.messages.push(describe());
        }
    }

    /// Counts `lines` log lines of which `errors` failed to parse.
    pub fn lines(&mut self, lines: u64, errors: u64, describe: impl FnOnce() -> String) {
        self.parse_errors += errors;
        self.count(lines, errors, describe);
    }

    /// Counts one operation or output check that must hold.
    pub fn expect(&mut self, ok: bool, describe: impl FnOnce() -> String) {
        self.count(1, u64::from(!ok), describe);
    }

    /// Counts one failed operation.
    pub fn fail(&mut self, message: String) {
        self.count(1, 1, || message);
    }

    pub fn correct(&self) -> bool {
        self.failed == 0
    }
}
