//! Process-level readings from `/proc/self` (Linux only, like the rest
//! of the repo's tooling): CPU seconds, peak resident set, and how
//! often the scheduler took the core away.

use std::fs;

/// `USER_HZ`: the unit of `utime`/`stime` in `/proc/self/stat`, fixed
/// at 100 by the Linux userspace ABI.
const TICKS_PER_S: f64 = 100.0;

#[derive(Clone, Copy, Debug, Default)]
pub struct ProcSample {
    pub user_s: f64,
    pub sys_s: f64,
    pub invol_ctx_switches: f64,
}

impl ProcSample {
    pub fn since(&self, base: &ProcSample) -> ProcSample {
        ProcSample {
            user_s: self.user_s - base.user_s,
            sys_s: self.sys_s - base.sys_s,
            invol_ctx_switches: self.invol_ctx_switches - base.invol_ctx_switches,
        }
    }
}

fn status_field(status: &str, key: &str) -> Option<f64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix(key)?.strip_prefix(':'))
        .and_then(|rest| rest.split_whitespace().next()?.parse().ok())
}

pub fn sample() -> ProcSample {
    let stat = fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name, which may itself
    // contain spaces: utime and stime are the 12th and 13th of those.
    let mut fields = stat
        .rsplit_once(')')
        .map_or("", |(_, rest)| rest)
        .split_whitespace()
        .skip(11)
        .map(|f| f.parse::<f64>().unwrap_or(0.0) / TICKS_PER_S);
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    ProcSample {
        user_s: fields.next().unwrap_or(0.0),
        sys_s: fields.next().unwrap_or(0.0),
        invol_ctx_switches: status_field(&status, "nonvoluntary_ctxt_switches").unwrap_or(0.0),
    }
}

/// Peak resident set of this process so far (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status_field(&status, "VmHWM").unwrap_or(0.0) / 1024.0
}
