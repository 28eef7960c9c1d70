//! Prometheus-style text exposition (format 0.0.4), the
//! `--metrics-text` surface.
//!
//! The crate has no global registry, so exposition is a push-style
//! builder: the run-end code walks whatever it wants exported and
//! renders one snapshot in the standard `text/plain; version=0.0.4`
//! shape (`# HELP` / `# TYPE` headers, one sample line per series).

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphabetic() || c == '_')
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

fn escape_label(v: &str) -> String {
    v.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

fn escape_help(v: &str) -> String {
    v.replace('\\', "\\\\").replace('\n', "\\n")
}

/// Renders one float the way Prometheus expects (`+Inf`/`-Inf`/`NaN`
/// spelled out, integers without a fraction).
fn number(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_string()
    } else if v == f64::INFINITY {
        "+Inf".to_string()
    } else if v == f64::NEG_INFINITY {
        "-Inf".to_string()
    } else if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

fn render_labels(labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return String::new();
    }
    let body: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", escape_label(v)))
        .collect();
    format!("{{{}}}", body.join(","))
}

/// Builds one Prometheus text-format snapshot.
///
/// `# HELP`/`# TYPE` headers are emitted once per metric family, so the
/// same name may be exposed repeatedly with different labels (one
/// series per shard, say) and the output stays parseable.
#[derive(Debug, Default)]
pub struct TextExposition {
    out: String,
    headered: Vec<String>,
}

impl TextExposition {
    /// An empty exposition.
    pub fn new() -> Self {
        Self::default()
    }

    fn header(&mut self, name: &str, kind: &str, help: &str) {
        assert!(valid_name(name), "invalid metric name {name:?}");
        if self.headered.iter().any(|h| h == name) {
            return;
        }
        self.headered.push(name.to_string());
        self.out
            .push_str(&format!("# HELP {name} {}\n", escape_help(help)));
        self.out.push_str(&format!("# TYPE {name} {kind}\n"));
    }

    /// Exposes one sample of a metric of the given kind (`counter` or
    /// `gauge`).
    pub fn value(&mut self, name: &str, help: &str, kind: &str, labels: &[(&str, &str)], v: f64) {
        self.header(name, kind, help);
        self.out
            .push_str(&format!("{name}{} {}\n", render_labels(labels), number(v)));
    }

    /// The accumulated exposition text.
    pub fn render(&self) -> &str {
        &self.out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn values_expose_with_headers_and_labels() {
        let mut x = TextExposition::new();
        x.value(
            "dr_evals_total",
            "Design points evaluated.",
            "counter",
            &[],
            7.0,
        );
        x.value("dr_rate", "Eval rate.", "gauge", &[("shard", "1")], 12.5);
        let text = x.render();
        assert!(text.contains("# HELP dr_evals_total Design points evaluated.\n"));
        assert!(text.contains("# TYPE dr_evals_total counter\n"));
        assert!(text.contains("dr_evals_total 7\n"));
        assert!(text.contains("# TYPE dr_rate gauge\n"));
        assert!(text.contains("dr_rate{shard=\"1\"} 12.5\n"));
    }

    #[test]
    fn headers_dedupe_across_series_of_one_family() {
        let mut x = TextExposition::new();
        x.value(
            "dr_shard_events",
            "Events.",
            "counter",
            &[("shard", "0")],
            0.0,
        );
        x.value(
            "dr_shard_events",
            "Events.",
            "counter",
            &[("shard", "1")],
            0.0,
        );
        let text = x.render();
        assert_eq!(text.matches("# HELP dr_shard_events").count(), 1);
        assert_eq!(text.matches("dr_shard_events{").count(), 2);
    }

    #[test]
    fn label_values_escape_quotes_and_newlines() {
        let mut x = TextExposition::new();
        x.value("dr_x", "h", "gauge", &[("k", "a\"b\nc")], 1.0);
        assert!(x.render().contains("dr_x{k=\"a\\\"b\\nc\"} 1\n"));
    }

    #[test]
    #[should_panic(expected = "invalid metric name")]
    fn invalid_names_are_rejected() {
        let mut x = TextExposition::new();
        x.value("dr metric", "h", "gauge", &[], 1.0);
    }
}
