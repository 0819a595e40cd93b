//! Process-wide counters read from `/proc/self`.

/// Kernel clock ticks per second, the unit of `utime`/`stime` in
/// `/proc/self/stat` (`USER_HZ`, 100 on every mainstream Linux build).
const CLOCK_TICKS_PER_S: f64 = 100.0;

/// CPU seconds (user + system) the whole process, every thread included,
/// has consumed so far.
#[must_use]
pub(crate) fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name (field 2) may contain spaces; fields after it are
    // counted from the closing parenthesis. utime and stime are fields 14
    // and 15, i.e. the 12th and 13th after the state field.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .unwrap_or(0)
    };
    #[allow(clippy::cast_precision_loss)]
    let total = (ticks(11) + ticks(12)) as f64;
    total / CLOCK_TICKS_PER_S
}

/// The machine-wide CPU time counters of `/proc/stat`, summed over every
/// CPU, in clock ticks.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct CpuTicks {
    /// Time spent running: user, nice, system, irq and softirq.
    pub(crate) busy: u64,
    /// Time the hypervisor ran something else while a CPU wanted to run
    /// (`steal`).
    pub(crate) steal: u64,
}

/// The machine's CPU time counters so far (zero where `/proc/stat` cannot
/// be read).
#[must_use]
pub(crate) fn cpu_ticks() -> CpuTicks {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .and_then(|l| l.strip_prefix("cpu "))
        .map(|l| l.split_whitespace().map_while(|f| f.parse().ok()).collect())
        .unwrap_or_default();
    let field = |i: usize| fields.get(i).copied().unwrap_or(0);
    // user nice system idle iowait irq softirq steal [guest guest_nice,
    // already counted in user and nice]
    CpuTicks {
        busy: field(0) + field(1) + field(2) + field(5) + field(6),
        steal: field(7),
    }
}

impl CpuTicks {
    /// Add the machine's CPU time since `before` (an earlier
    /// [`cpu_ticks`]) to these counts.
    pub(crate) fn add_since(&mut self, before: CpuTicks) {
        let now = cpu_ticks();
        self.busy += now.busy.saturating_sub(before.busy);
        self.steal += now.steal.saturating_sub(before.steal);
    }

    /// The machine's CPU time since `before`.
    #[must_use]
    pub(crate) fn since(before: CpuTicks) -> CpuTicks {
        let mut ticks = CpuTicks::default();
        ticks.add_since(before);
        ticks
    }

    /// Share of the time the machine's CPUs wanted to run that they did
    /// run: busy ÷ (busy + stolen). It is 1 without steal, and a duration
    /// the machine spent on work, times this share, is that duration with
    /// the hypervisor's stolen time taken out.
    #[must_use]
    pub(crate) fn running_share(self) -> f64 {
        if self.busy == 0 {
            return 1.0;
        }
        #[allow(clippy::cast_precision_loss)]
        let share = self.busy as f64 / (self.busy + self.steal) as f64;
        share
    }
}

fn status_field(name: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix(name))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
}

/// Peak resident set size (`VmHWM`) so far, MiB.
#[must_use]
pub(crate) fn peak_rss_mib() -> f64 {
    #[allow(clippy::cast_precision_loss)]
    let kib = status_field("VmHWM:").unwrap_or(0) as f64;
    kib / 1024.0
}

/// Threads the process runs right now.
#[must_use]
pub(crate) fn threads() -> u64 {
    status_field("Threads:").unwrap_or(0)
}
