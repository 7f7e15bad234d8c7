//! The trace vocabulary's wire format: one event of every kind,
//! exported as JSONL and compared byte for byte with the format the
//! golden traces and every recorded `.jsonl` file were written in.

use trace::{EventKind, Recorder, Scope};

/// One event of every kind, in declaration order, with field values
/// distinct enough that a swapped or dropped field shows.
fn every_kind() -> Vec<EventKind> {
    use EventKind::*;
    vec![
        FlowStarted { flow: 1, bytes: 2 },
        FlowRateChanged {
            flow: 3,
            gbps: 12.5,
        },
        FlowFinished {
            flow: 4,
            aborted: true,
        },
        SendPosted {
            conn: 5,
            end: 1,
            wr: 6,
            bytes: 7,
        },
        RecvPosted {
            conn: 8,
            end: 0,
            wr: 9,
        },
        WritePosted {
            conn: 10,
            end: 1,
            tag: 11,
            bytes: 12,
        },
        WrCompleted {
            conn: 13,
            end: 0,
            wr: 14,
            recv: true,
        },
        WriteDelivered {
            conn: 15,
            end: 1,
            tag: 16,
        },
        RnrArmed { conn: 17, dir: 1 },
        WrFlushed {
            conn: 18,
            end: 0,
            wr: 19,
            recv: false,
        },
        QpBroken { conn: 20 },
        NodeCrashed,
        PayloadDropped {
            conn: 21,
            end: 1,
            wr: 22,
            imm: 23,
        },
        PayloadCorrupted {
            conn: 24,
            end: 0,
            wr: 25,
            imm: 26,
        },
        MessageSubmitted { size: 27 },
        TransferStarted {
            size: 28,
            blocks: 29,
            root: true,
        },
        ResumeStarted {
            size: 30,
            blocks: 31,
            held: vec![0, 2],
            already_delivered: false,
        },
        BufferRequested { size: 32 },
        ReadyGranted { to: 33 },
        ReadyHeard { from: 34 },
        BlockSendIssued {
            to: 35,
            block: 36,
            step: 37,
            bytes: 38,
            epoch: 39,
        },
        BlockSendCompleted { to: 40 },
        SendAdmitted {
            to: 41,
            block: 42,
            queued_ns: 43,
        },
        BlockArrived {
            from: 44,
            block: 45,
            step: 46,
            first: true,
            epoch: 47,
        },
        Delivered { size: 48 },
        Wedged { failed: 49 },
        EpochInstalled {
            epoch: 50,
            rank: 51,
            num_nodes: 52,
            resumes: 53,
            resume_blocks_out: 54,
        },
        Suspected { failed: 55 },
        ViewMerged {
            from: 56,
            newly: 57,
        },
        ReconfigInstalled {
            epoch: 58,
            survivors: vec![0, 1],
            removed: vec![2],
            abandoned: vec![],
            resumed_blocks: 59,
            forced: true,
        },
        NackSent {
            conn: 60,
            end: 1,
            seq: 61,
            span: 62,
        },
        RepairSent {
            conn: 63,
            seq: u64::MAX,
        },
        RepairDelivered {
            conn: 65,
            seq: 66,
            coded: true,
        },
        ParitySent {
            conn: 67,
            seq: 68,
            data: 69,
        },
        LossEscalated { conn: 70 },
        AtomicSubmitted {
            slot: 71,
            sender: 72,
            null: true,
            size: 73,
        },
        FrontierAdvanced {
            sender: 74,
            frontier: 75,
        },
        StableFrontier {
            sender: 76,
            frontier: 77,
        },
        AtomicDelivered {
            slot: 78,
            sender: 79,
            seq: 80,
            size: 81,
        },
        AtomicTrimmed { slot: 82 },
    ]
}

fn recorded(kinds: Vec<EventKind>) -> Vec<trace::TraceEvent> {
    let r = Recorder::full();
    for (t, kind) in kinds.into_iter().enumerate() {
        r.record_at(t as u64, Scope::none(), || kind);
    }
    r.events()
}

/// The JSONL of [`every_kind`]: the wire format of every recorded
/// trace. A change here breaks every `.jsonl` file written before it.
const EVERY_KIND_JSONL: &str = r#"{"seq":0,"t_ns":0,"kind":"flow_started","flow":1,"bytes":2}
{"seq":1,"t_ns":1,"kind":"flow_rate_changed","flow":3,"gbps":12.5}
{"seq":2,"t_ns":2,"kind":"flow_finished","flow":4,"aborted":true}
{"seq":3,"t_ns":3,"kind":"send_posted","conn":5,"end":1,"wr":6,"bytes":7}
{"seq":4,"t_ns":4,"kind":"recv_posted","conn":8,"end":0,"wr":9}
{"seq":5,"t_ns":5,"kind":"write_posted","conn":10,"end":1,"tag":11,"bytes":12}
{"seq":6,"t_ns":6,"kind":"wr_completed","conn":13,"end":0,"wr":14,"recv":true}
{"seq":7,"t_ns":7,"kind":"write_delivered","conn":15,"end":1,"tag":16}
{"seq":8,"t_ns":8,"kind":"rnr_armed","conn":17,"dir":1}
{"seq":9,"t_ns":9,"kind":"wr_flushed","conn":18,"end":0,"wr":19,"recv":false}
{"seq":10,"t_ns":10,"kind":"qp_broken","conn":20}
{"seq":11,"t_ns":11,"kind":"node_crashed"}
{"seq":12,"t_ns":12,"kind":"payload_dropped","conn":21,"end":1,"wr":22,"imm":23}
{"seq":13,"t_ns":13,"kind":"payload_corrupted","conn":24,"end":0,"wr":25,"imm":26}
{"seq":14,"t_ns":14,"kind":"message_submitted","size":27}
{"seq":15,"t_ns":15,"kind":"transfer_started","size":28,"blocks":29,"root":true}
{"seq":16,"t_ns":16,"kind":"resume_started","size":30,"blocks":31,"held":[0,2],"already_delivered":false}
{"seq":17,"t_ns":17,"kind":"buffer_requested","size":32}
{"seq":18,"t_ns":18,"kind":"ready_granted","to":33}
{"seq":19,"t_ns":19,"kind":"ready_heard","from":34}
{"seq":20,"t_ns":20,"kind":"block_send_issued","to":35,"block":36,"step":37,"bytes":38,"epoch":39}
{"seq":21,"t_ns":21,"kind":"block_send_completed","to":40}
{"seq":22,"t_ns":22,"kind":"send_admitted","to":41,"block":42,"queued_ns":43}
{"seq":23,"t_ns":23,"kind":"block_arrived","from":44,"block":45,"step":46,"first":true,"epoch":47}
{"seq":24,"t_ns":24,"kind":"delivered","size":48}
{"seq":25,"t_ns":25,"kind":"wedged","failed":49}
{"seq":26,"t_ns":26,"kind":"epoch_installed","epoch":50,"rank":51,"num_nodes":52,"resumes":53,"resume_blocks_out":54}
{"seq":27,"t_ns":27,"kind":"suspected","failed":55}
{"seq":28,"t_ns":28,"kind":"view_merged","from":56,"newly":57}
{"seq":29,"t_ns":29,"kind":"reconfig_installed","epoch":58,"survivors":[0,1],"removed":[2],"abandoned":[],"resumed_blocks":59,"forced":true}
{"seq":30,"t_ns":30,"kind":"nack_sent","conn":60,"end":1,"seq":61,"span":62}
{"seq":31,"t_ns":31,"kind":"repair_sent","conn":63,"seq":18446744073709551615}
{"seq":32,"t_ns":32,"kind":"repair_delivered","conn":65,"seq":66,"coded":true}
{"seq":33,"t_ns":33,"kind":"parity_sent","conn":67,"seq":68,"data":69}
{"seq":34,"t_ns":34,"kind":"loss_escalated","conn":70}
{"seq":35,"t_ns":35,"kind":"atomic_submitted","slot":71,"sender":72,"null":true,"size":73}
{"seq":36,"t_ns":36,"kind":"frontier_advanced","sender":74,"frontier":75}
{"seq":37,"t_ns":37,"kind":"stable_frontier","sender":76,"frontier":77}
{"seq":38,"t_ns":38,"kind":"atomic_delivered","slot":78,"sender":79,"seq":80,"size":81}
{"seq":39,"t_ns":39,"kind":"atomic_trimmed","slot":82}
"#;

#[test]
fn every_kind_exports_byte_for_byte() {
    let got = trace::export::to_jsonl(&recorded(every_kind()));
    for (i, (g, w)) in got.lines().zip(EVERY_KIND_JSONL.lines()).enumerate() {
        assert_eq!(g, w, "line {} diverged", i + 1);
    }
    assert_eq!(got, EVERY_KIND_JSONL);
}

/// `FlowRateChanged` -> `flow_rate_changed`.
fn snake_case(variant: &str) -> String {
    let mut out = String::new();
    for (i, c) in variant.chars().enumerate() {
        if c.is_ascii_uppercase() && i > 0 {
            out.push('_');
        }
        out.push(c.to_ascii_lowercase());
    }
    out
}

#[test]
fn wire_names_are_the_variant_names_in_snake_case() {
    let kinds = every_kind();
    let names: Vec<&str> = kinds.iter().map(EventKind::name).collect();
    assert_eq!(
        names,
        EventKind::NAMES,
        "every_kind() must hold one event of every kind, in declaration order"
    );
    for kind in &kinds {
        let debug = format!("{kind:?}");
        let variant = debug.split([' ', '{']).next().unwrap_or_default();
        assert_eq!(kind.name(), snake_case(variant));
    }
}
