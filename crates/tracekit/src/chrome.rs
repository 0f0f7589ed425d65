//! Chrome `trace_event` exporter.
//!
//! Serializes a tracer's retired spans as the JSON Object Format accepted by
//! `chrome://tracing` and Perfetto: one complete (`"ph":"X"`) event per span,
//! microsecond timestamps, one timeline row (`tid`) per trace so each
//! sampled request renders as its own lane. Written via [`simkit::json`] so
//! field order — and therefore the exported bytes — is deterministic.

use crate::span::Span;
use crate::tracer::Tracer;
use simkit::json::{array_raw, Object};

/// Renders one span as a Chrome complete event.
fn event(s: &Span) -> String {
    let mut args = Object::new()
        .field("span", s.id.0)
        .field("parent", s.parent.0)
        .field("bytes", s.bytes);
    if s.queue > 0 {
        args = args.field("queue", s.queue);
    }
    if !s.notes.is_empty() {
        args = args.field("notes", &s.notes);
    }
    if !s.faults.is_empty() {
        args = args.field("faults", &s.faults);
    }
    Object::new()
        .field("name", s.label)
        .field("cat", s.kind.name())
        .field("ph", "X")
        .field("ts", s.open.as_us())
        .field("dur", (s.close - s.open).as_us())
        .field("pid", 1u32)
        .field("tid", s.trace.0)
        .field_raw("args", &args.finish())
        .finish()
}

/// Serializes the tracer's sink as one Chrome `trace_event` document.
pub fn export(tracer: &Tracer) -> String {
    let events: Vec<String> = tracer.spans().map(event).collect();
    Object::new()
        .field_raw("traceEvents", &array_raw(&events))
        .field("displayTimeUnit", "ns")
        .field_raw(
            "metadata",
            &Object::new()
                .field("seed", tracer.seed())
                .field("spans", events.len())
                .field("dropped", tracer.dropped())
                .finish(),
        )
        .finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::{SpanId, StageKind, TraceId};
    use crate::tracer::TraceConfig;
    use simkit::json::{parse, Value};
    use simkit::Time;

    #[test]
    fn export_round_trips_through_the_json_parser() {
        let mut tr = Tracer::new(9, TraceConfig::default());
        let root = tr.span_open(
            TraceId(2),
            SpanId::NULL,
            StageKind::Request,
            "write",
            4096,
            Time::from_us(1.0),
        );
        let child = tr.span_open(
            TraceId(2),
            root,
            StageKind::EngineJob,
            "lz4-engine",
            4096,
            Time::from_us(2.0),
        );
        tr.span_note(child, "retransmit");
        tr.fault_mark(Time::from_us(3.0), "server-slow(0, 4x)".to_string());
        tr.span_close(child, Time::from_us(4.0));
        tr.span_close(root, Time::from_us(5.0));

        let doc = export(&tr);
        let v = parse(&doc).expect("valid json");
        let events = v.get("traceEvents").and_then(Value::as_arr).expect("events");
        assert_eq!(events.len(), 2);
        // Spans retire in close order: the child first.
        let e0 = &events[0];
        assert_eq!(e0.get("name").and_then(Value::as_str), Some("lz4-engine"));
        assert_eq!(e0.get("cat").and_then(Value::as_str), Some("engine-job"));
        assert_eq!(e0.get("ph").and_then(Value::as_str), Some("X"));
        assert_eq!(e0.get("ts").and_then(Value::as_f64), Some(2.0));
        assert_eq!(e0.get("dur").and_then(Value::as_f64), Some(2.0));
        assert_eq!(e0.get("tid").and_then(Value::as_f64), Some(2.0));
        let args = e0.get("args").expect("args");
        assert_eq!(args.get("parent").and_then(Value::as_f64), Some(root.0 as f64));
        assert_eq!(
            args.get("notes").and_then(|n| n.item(0)).and_then(Value::as_str),
            Some("retransmit")
        );
        assert_eq!(
            args.get("faults").and_then(|f| f.item(0)).and_then(Value::as_str),
            Some("server-slow(0, 4x)")
        );
        // The root closed after the fault mark, so it carries it too.
        let a1 = events[1].get("args").expect("args");
        assert!(a1.get("faults").and_then(|f| f.item(0)).is_some());
        assert_eq!(
            v.get("metadata").and_then(|m| m.get("spans")).and_then(Value::as_f64),
            Some(2.0)
        );
    }

    #[test]
    fn export_is_deterministic() {
        let build = || {
            let mut tr = Tracer::new(11, TraceConfig::default());
            for i in 0..8u64 {
                let id = tr.span_open(
                    TraceId(2 + i),
                    SpanId::NULL,
                    StageKind::DiskIo,
                    "disk-io",
                    512 * i,
                    Time::from_ps(10 * i),
                );
                tr.span_close(id, Time::from_ps(10 * i + 7));
            }
            export(&tr)
        };
        assert_eq!(build(), build());
    }
}
