//! Property tests for the plan table: the builders are the oracle. A plan
//! walked back out of the table's flat form must be exactly the plan its
//! builder returned, move the same bytes on every resource, and share its
//! id with every equal plan built from other inputs.

use smartds::plan::{
    inject_read_services, inject_write_services, read_hit_plan, read_plan,
    write_plan_replicated, Phase, Plan, PlanId, PlanTable, Res, Step,
};
use smartds::{Design, Placement, ServicesConfig};
use testkit::gen::{self, Gen};

/// One set of builder inputs, as the cluster would pass them.
#[derive(Clone, Debug)]
struct Key {
    design: Design,
    /// 0 = write, 1 = read miss, 2 = read hit.
    op: u8,
    /// Reduced modulo the design's port count.
    port: u8,
    b: u32,
    c: u32,
    rep: u8,
    /// Dedup and crypt placements plus the cache switch, when data
    /// services are on.
    services: Option<(Placement, Placement, bool)>,
}

fn key_gen() -> impl Gen<Value = Key> {
    let design = gen::choice(vec![
        Design::CpuOnly,
        Design::Acc { ddio: true },
        Design::Acc { ddio: false },
        Design::Bf2,
        Design::SmartDs { ports: 1 },
        Design::SmartDs { ports: 2 },
        Design::SmartDs { ports: 6 },
    ]);
    let placement = gen::choice(vec![Placement::Host, Placement::Soc, Placement::Engine]);
    let services = gen::choice(vec![false, true]);
    // Few sizes, so equal plans from different keys are common.
    let sizes = (gen::choice(vec![4096u32, 2048]), gen::choice(vec![1950u32, 700, 4096]));
    (
        design,
        (gen::u8s(0..3), gen::u8s(0..6)),
        sizes,
        gen::u8s(1..7),
        (services, placement, gen::choice(vec![Placement::Host, Placement::Soc, Placement::Engine])),
        gen::bools(),
    )
        .map(|(design, (op, port), (b, c), rep, (on, dedup, crypt), cache)| Key {
            design,
            op,
            port: port % design.ports() as u8,
            b,
            c,
            rep,
            services: on.then_some((dedup, crypt, cache)),
        })
}

/// What the cluster builds for `k`: the design's plan with the service
/// steps spliced in.
fn build(k: &Key) -> Plan {
    let svc = k.services.map(|(dedup, crypt, cache)| {
        let mut cfg = ServicesConfig::paper();
        cfg.dedup_placement = dedup;
        cfg.crypt_placement = crypt;
        if !cache {
            cfg.cache_blocks = 0;
        }
        cfg
    });
    match k.op {
        0 => {
            let mut p = write_plan_replicated(k.design, k.port, k.b, k.c, k.rep);
            if let Some(svc) = &svc {
                inject_write_services(&mut p, svc, k.b, k.c);
            }
            p
        }
        1 => {
            let mut p = read_plan(k.design, k.port, k.b, k.c);
            if let Some(svc) = &svc {
                inject_read_services(&mut p, svc, k.c, svc.cache_enabled());
            }
            p
        }
        _ => read_hit_plan(k.design, k.port, k.b),
    }
}

/// Plan `id` walked back out of the table, the way the executor walks it.
fn walk(table: &PlanTable, id: PlanId) -> Plan {
    let phases = (0..table.phase_count(id))
        .map(|p| Phase {
            branches: (0..table.branch_count(id, p))
                .map(|b| table.branch(id, p, b).to_vec())
                .collect(),
        })
        .collect();
    Plan { phases }
}

/// Every resource a plan can charge.
fn all_res() -> Vec<Res> {
    let mut res = vec![
        Res::MemRead,
        Res::MemWrite,
        Res::NicH2D,
        Res::NicD2H,
        Res::DevH2D,
        Res::DevD2H,
        Res::Hbm,
        Res::DevMem,
    ];
    for port in 0..6 {
        res.push(Res::PortTx(port));
        res.push(Res::PortRx(port));
    }
    res
}

testkit::prop! {
    cases = 256;

    /// Interning then walking a plan is the identity, bytes per resource
    /// included, and two keys share an id exactly when their builders
    /// return equal plans.
    fn table_walk_matches_the_builders(keys in gen::vecs(key_gen(), 1..16)) {
        let mut table = PlanTable::default();
        let mut interned: Vec<(Plan, PlanId)> = Vec::new();
        for k in &keys {
            let plan = build(k);
            let id = table.intern(&plan);
            let walked = walk(&table, id);
            assert_eq!(walked, plan, "walked plan differs from the builder's for {k:?}");
            for res in all_res() {
                let flat: u64 = walked
                    .phases
                    .iter()
                    .flat_map(|ph| ph.branches.iter())
                    .flatten()
                    .map(|s| match s {
                        Step::Xfer(r, bytes) if *r == res => u64::from(*bytes),
                        _ => 0,
                    })
                    .sum();
                assert_eq!(flat, plan.bytes_on(res), "{res:?} bytes for {k:?}");
            }
            interned.push((plan, id));
        }
        // Interning never moves an earlier plan, and equal plans merge.
        for (plan, id) in &interned {
            assert_eq!(&walk(&table, *id), plan);
            for (other, other_id) in &interned {
                assert_eq!(plan == other, id == other_id, "id sharing disagrees with plan equality");
            }
        }
    }
}
