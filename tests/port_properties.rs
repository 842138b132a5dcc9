//! Property-based tests on the hardware port mechanism: conservation,
//! ordering, and waiter exclusivity under random operation sequences.

use imax::arch::{AccessDescriptor, ObjectSpec, PortDiscipline, Rights, ShardedSpace, WaiterKind};
use imax::gdp::port::{receive, send, RecvOutcome, SendOutcome};
use imax::ipc::create_port;
use proptest::prelude::*;
use std::collections::VecDeque;

fn space() -> ShardedSpace {
    ShardedSpace::new(256 * 1024, 16 * 1024, 4096, 1)
}

fn msg(space: &mut ShardedSpace, tag: u64) -> AccessDescriptor {
    let root = space.root_sro();
    let o = space
        .create_object(root, ObjectSpec::generic(16, 0))
        .unwrap();
    let ad = space.mint(o, Rights::READ | Rights::WRITE);
    space.write_u64(ad, 0, tag).unwrap();
    ad
}

#[derive(Debug, Clone)]
enum Op {
    Send(u64, u64), // tag, key
    Receive,
}

fn ops_strategy() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(
        prop_oneof![
            ((0u64..1000), (0u64..16)).prop_map(|(t, k)| Op::Send(t, k)),
            Just(Op::Receive),
        ],
        1..200,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// FIFO ports deliver in exact send order, conserve messages, and
    /// never report phantom occupancy.
    #[test]
    fn fifo_is_a_queue(ops in ops_strategy(), cap in 1u32..16) {
        let mut s = space();
        let root = s.root_sro();
        let port = create_port(&mut s, root, cap, PortDiscipline::Fifo).unwrap();
        let mut model: VecDeque<u64> = VecDeque::new();
        for op in ops {
            match op {
                Op::Send(tag, key) => {
                    let m = msg(&mut s, tag);
                    match send(&mut s, None, port.ad(), m, key, false, false).unwrap() {
                        SendOutcome::Queued | SendOutcome::Delivered => model.push_back(tag),
                        SendOutcome::WouldBlock => {
                            prop_assert_eq!(model.len(), cap as usize, "full means full");
                        }
                        SendOutcome::Blocked => unreachable!("no process"),
                    }
                }
                Op::Receive => {
                    match receive(&mut s, None, port.ad(), false, false).unwrap() {
                        RecvOutcome::Received(m) => {
                            let tag = s.read_u64(m.restricted(Rights::ALL), 0).unwrap();
                            let expect = model.pop_front();
                            prop_assert_eq!(Some(tag), expect, "FIFO order");
                        }
                        RecvOutcome::WouldBlock => prop_assert!(model.is_empty()),
                        RecvOutcome::Blocked => unreachable!("no process"),
                    }
                }
            }
            let st = s.port(port.object()).unwrap();
            prop_assert_eq!(st.msg_count as usize, model.len(), "occupancy model");
            prop_assert_eq!(st.waiters, WaiterKind::None);
        }
    }

    /// Priority ports always deliver a minimum-key message, and the
    /// multiset of delivered tags equals the multiset sent.
    #[test]
    fn priority_delivers_min_key(ops in ops_strategy(), cap in 1u32..16) {
        let mut s = space();
        let root = s.root_sro();
        let port = create_port(&mut s, root, cap, PortDiscipline::Priority).unwrap();
        // Model: multiset of (key, tag).
        let mut model: Vec<(u64, u64)> = Vec::new();
        for op in ops {
            match op {
                Op::Send(tag, key) => {
                    let m = msg(&mut s, tag);
                    match send(&mut s, None, port.ad(), m, key, false, false).unwrap() {
                        SendOutcome::Queued | SendOutcome::Delivered => model.push((key, tag)),
                        SendOutcome::WouldBlock => {}
                        SendOutcome::Blocked => unreachable!(),
                    }
                }
                Op::Receive => {
                    match receive(&mut s, None, port.ad(), false, false).unwrap() {
                        RecvOutcome::Received(m) => {
                            let tag = s.read_u64(m.restricted(Rights::ALL), 0).unwrap();
                            let min_key = model.iter().map(|(k, _)| *k).min().unwrap();
                            // The delivered message carries a minimal key.
                            let pos = model
                                .iter()
                                .position(|(k, t)| *t == tag && *k == min_key);
                            prop_assert!(
                                pos.is_some(),
                                "delivered tag {tag} must have minimal key {min_key}; model {model:?}"
                            );
                            model.remove(pos.unwrap());
                        }
                        RecvOutcome::WouldBlock => prop_assert!(model.is_empty()),
                        RecvOutcome::Blocked => unreachable!(),
                    }
                }
            }
        }
        // Drain: everything sent comes back out.
        while let RecvOutcome::Received(m) = receive(&mut s, None, port.ad(), false, false).unwrap() {
            let tag = s.read_u64(m.restricted(Rights::ALL), 0).unwrap();
            let pos = model.iter().position(|(_, t)| *t == tag);
            prop_assert!(pos.is_some(), "unexpected tag {tag}");
            model.remove(pos.unwrap());
        }
        prop_assert!(model.is_empty(), "no message lost: {model:?}");
    }

    /// Port statistics are an exact ledger: sends == receives + queued.
    #[test]
    fn stats_ledger_balances(ops in ops_strategy()) {
        let mut s = space();
        let root = s.root_sro();
        let port = create_port(&mut s, root, 8, PortDiscipline::Fifo).unwrap();
        for op in ops {
            match op {
                Op::Send(tag, key) => {
                    let m = msg(&mut s, tag);
                    let _ = send(&mut s, None, port.ad(), m, key, false, false).unwrap();
                }
                Op::Receive => {
                    let _ = receive(&mut s, None, port.ad(), false, false).unwrap();
                }
            }
            let st = s.port(port.object()).unwrap();
            prop_assert_eq!(
                st.stats.sends,
                st.stats.receives + st.msg_count as u64,
                "sends = receives + in-queue"
            );
        }
    }
}
