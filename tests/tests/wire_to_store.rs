//! Wire-to-store integration: write requests cross a lossy RC wire, split
//! into host/device memory, compress on the device, and land in a chunk
//! store — every layer of the stack in one flow, byte-verified.

use blockstore::{ChunkStore, Header, StoredBlock, HEADER_LEN};
use corpus::BlockPool;
use rocenet::endpoint::{Endpoint, EndpointEvent};
use rocenet::rc::Psn;
use rocenet::{Message, MemPool, RecvDesc};

fn make_endpoint() -> Endpoint {
    Endpoint::new(
        MemPool::new("host", 1 << 18),
        MemPool::new("dev", 1 << 22),
        1024, // MTU smaller than a block → every message is multi-packet
        4,
    )
}

/// Drives packets between client and middle tier, dropping every
/// `drop_every`-th data packet, until the client's sends all complete.
fn pump(
    client: &mut Endpoint,
    server: &mut Endpoint,
    qpn: u32,
    drop_every: u64,
) -> Vec<EndpointEvent> {
    let mut events = Vec::new();
    let mut n = 0u64;
    let mut idle = 0;
    while !client.is_idle(qpn) {
        if let Some(pkt) = client.poll_tx(qpn) {
            idle = 0;
            n += 1;
            if drop_every > 0 && n.is_multiple_of(drop_every) {
                continue;
            }
            let (ctrl, mut evs) = server.on_data(qpn, &pkt);
            events.append(&mut evs);
            events.append(&mut client.on_control(qpn, ctrl));
        } else {
            idle += 1;
            assert!(idle < 8, "livelock");
            client.on_timeout(qpn);
        }
    }
    events
}

#[test]
fn lossy_wire_to_chunk_store_roundtrip() {
    let pool = BlockPool::build(4096, 24, 21);
    let mut client = make_endpoint();
    let mut server = make_endpoint();
    client.create_qp(1, Psn::new(0xFF_FFF0));
    server.create_qp(1, Psn::new(0xFF_FFF0));

    // The middle tier posts split descriptors and owns a chunk store.
    let mut chunk = ChunkStore::new(u64::MAX);
    let mut bufs = Vec::new();
    for i in 0..24u64 {
        let h = server.host.alloc(HEADER_LEN).unwrap();
        let d = server.dev.alloc(4096).unwrap();
        server.post_recv(1, RecvDesc::split(i, h, HEADER_LEN, d));
        bufs.push((h, d));
    }

    // The client (VM) posts 24 write requests.
    for i in 0..24u64 {
        let header = Header::write(7, i, 0, i, 4096);
        client.post_send(
            1,
            i,
            Message::header_payload(header.encode().to_vec(), pool.get(i as usize).to_vec()),
        );
    }

    // Every 5th data packet is lost; RC recovers all of it.
    let events = pump(&mut client, &mut server, 1, 5);
    let recvs = events
        .iter()
        .filter(|e| matches!(e, EndpointEvent::RecvDone { .. }))
        .count();
    let sends = events
        .iter()
        .filter(|e| matches!(e, EndpointEvent::SendDone { .. }))
        .count();
    assert_eq!(recvs, 24, "all messages placed");
    assert_eq!(sends, 24, "all sends completed");
    assert!(!events
        .iter()
        .any(|e| matches!(e, EndpointEvent::RecvError { .. })));

    // Middle-tier software: parse each header from host memory, compress
    // the payload from device memory, and append to the chunk store.
    for (i, (h, d)) in bufs.iter().enumerate() {
        let header = Header::decode(&server.host.read(*h, 0, HEADER_LEN).unwrap()).unwrap();
        assert_eq!(header.request_id, i as u64);
        assert_eq!(header.payload_len, 4096);
        let payload = server.dev.read(*d, 0, 4096).unwrap();
        assert_eq!(&payload[..], pool.get(i), "payload bytes survive loss");
        let packed = lz4kit::compress(&payload);
        chunk.append(header.block_index, StoredBlock::lz4(packed, 4096));
    }

    // Every stored block expands back to the original corpus block.
    for i in 0..24u64 {
        assert_eq!(
            chunk.read(i).unwrap().expand().unwrap(),
            pool.get(i as usize),
            "block {i}"
        );
    }
    assert_eq!(chunk.live_blocks(), 24);
}

#[test]
fn clean_wire_needs_no_timeouts() {
    let mut client = make_endpoint();
    let mut server = make_endpoint();
    client.create_qp(9, Psn::new(5));
    server.create_qp(9, Psn::new(5));
    let h = server.host.alloc(HEADER_LEN).unwrap();
    let d = server.dev.alloc(8192).unwrap();
    server.post_recv(9, RecvDesc::split(0, h, HEADER_LEN, d));
    client.post_send(
        9,
        0,
        Message::header_payload(vec![1u8; HEADER_LEN], vec![2u8; 8000]),
    );
    let events = pump(&mut client, &mut server, 9, 0);
    assert_eq!(
        events
            .iter()
            .filter(|e| matches!(e, EndpointEvent::RecvDone { .. }))
            .count(),
        1
    );
    assert!(server.dev.read(d, 0, 8000).unwrap().iter().all(|&b| b == 2));
}
