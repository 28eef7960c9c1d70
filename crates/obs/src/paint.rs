//! One live status line on stderr.
//!
//! Both `--progress` renderers (the single-process one behind
//! `dr-rules --progress` and the fleet rollup behind `swarm --progress`)
//! fold their own events into their own line text. [`LinePainter`] owns
//! everything else: the throttle, the in-place repaint, and the newline
//! that ends the line when the run finishes. On a TTY the line is
//! repainted in place (`\r` + erase-line) at most every 100 ms; when
//! stderr is redirected it degrades to plain one-per-~2 s log lines.

use std::cell::Cell;
use std::io::{IsTerminal, Write};
use std::time::{Duration, Instant};

/// Minimum interval between in-place repaints on a TTY.
const TTY_INTERVAL: Duration = Duration::from_millis(100);
/// Minimum interval between plain log lines when stderr is not a TTY.
const PLAIN_INTERVAL: Duration = Duration::from_secs(2);

/// Throttled painter of one stderr status line.
#[derive(Debug)]
pub struct LinePainter {
    tty: bool,
    last_paint: Cell<Option<Instant>>,
}

impl LinePainter {
    /// A painter auto-detecting whether stderr is a TTY.
    pub fn stderr() -> Self {
        Self::with_tty(std::io::stderr().is_terminal())
    }

    /// A painter with the TTY mode forced (tests use this to exercise
    /// both paint paths deterministically).
    pub fn with_tty(tty: bool) -> Self {
        LinePainter {
            tty,
            last_paint: Cell::new(None),
        }
    }

    /// Paints `line()` when `force` is set or the mode's interval has
    /// passed since the last paint; `line` is not called otherwise.
    /// `last` ends a repainted TTY line with a newline.
    pub fn paint(&self, force: bool, last: bool, line: impl FnOnce() -> String) {
        let interval = if self.tty {
            TTY_INTERVAL
        } else {
            PLAIN_INTERVAL
        };
        let due = self
            .last_paint
            .get()
            .is_none_or(|t| t.elapsed() >= interval);
        if !force && !due {
            return;
        }
        self.last_paint.set(Some(Instant::now()));
        let line = line();
        let mut err = std::io::stderr().lock();
        if self.tty {
            // Repaint one line in place; erase leftovers from a longer
            // previous paint.
            let _ = write!(err, "\r\x1b[2K{line}");
            if last {
                let _ = writeln!(err);
            }
            let _ = err.flush();
        } else {
            let _ = writeln!(err, "{line}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn throttles_unforced_paints_and_always_honours_forced_ones() {
        let painter = LinePainter::with_tty(false);
        let mut built = 0;
        painter.paint(false, false, || {
            built += 1;
            "first".into()
        });
        // Within the plain interval: an unforced paint builds nothing.
        painter.paint(false, false, || {
            built += 1;
            "skipped".into()
        });
        painter.paint(true, true, || {
            built += 1;
            "forced".into()
        });
        assert_eq!(built, 2);
    }
}
