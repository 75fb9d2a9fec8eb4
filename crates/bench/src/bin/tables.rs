//! Prints the paper's parameter tables (I-IV), the disk specifications,
//! the worked example of Table II, and a Figure 2-style pair of allocation
//! grids.

use rds_bench::report::Table;
use rds_bench::rig;
use rds_decluster::allocation::Placement;
use rds_decluster::orthogonal::OrthogonalAllocation;
use rds_decluster::query::Bucket;
use rds_storage::experiments::paper_example;
use rds_storage::specs::{DiskKind, ALL_DISKS};

fn table_i() -> Table {
    let mut t = Table::new("Table I — Notation", &["Notation", "Meaning"]);
    for (n, m) in [
        ("N", "Total number of disks in the system"),
        ("|Q|", "Total number of buckets to be retrieved; query size"),
        ("c", "Number of copies for each bucket"),
        (
            "Cj",
            "Average retrieval cost of a single bucket from disk j",
        ),
        ("Dj", "Network delay to the server where disk j is located"),
        (
            "Xj",
            "Time it takes for disk j to be idle if busy, 0 otherwise",
        ),
    ] {
        t.push_row(vec![n.into(), m.into()]);
    }
    t
}

fn table_ii() -> Table {
    let sys = paper_example();
    let mut t = Table::new(
        "Table II — System parameters of the worked example",
        &["Disk j", "Cj (ms)", "Dj (ms)", "Xj (ms)", "Site"],
    );
    for (j, d) in sys.disks().iter().enumerate() {
        t.push_row(vec![
            j.to_string(),
            format!("{:.1}", d.cost().as_millis_f64()),
            format!("{:.0}", d.network_delay.as_millis_f64()),
            format!("{:.0}", d.initial_load.as_millis_f64()),
            (sys.site_of(j) + 1).to_string(),
        ]);
    }
    t
}

fn table_iii() -> Table {
    let mut t = Table::new(
        "Table III — Disk specifications",
        &["Producer", "Model", "Type", "RPM", "Time (ms)"],
    );
    for d in ALL_DISKS {
        t.push_row(vec![
            d.producer.into(),
            d.model.into(),
            match d.kind {
                DiskKind::Hdd => "HDD".into(),
                DiskKind::Ssd => "SSD".into(),
            },
            d.rpm
                .map(|r| format!("{}K", r / 1000))
                .unwrap_or("-".into()),
            format!("{:.1}", d.access_time.as_millis_f64()),
        ]);
    }
    t
}

fn table_iv() -> Table {
    let mut t = Table::new(
        "Table IV — Experiments",
        &[
            "Exp",
            "Sites",
            "Disk Prop.",
            "Site 1 Disks",
            "Site 2 Disks",
            "Delays",
            "Loads",
        ],
    );
    for (exp, prop, s1, s2, delays, loads) in [
        ("1", "hom.", "cheetah", "cheetah", "0", "0"),
        ("2", "het.", "ssd", "hdd", "0", "0"),
        ("3", "het.", "hdd", "ssd", "0", "0"),
        ("4", "het.", "ssd+hdd", "ssd+hdd", "0", "0"),
        ("5", "het.", "ssd+hdd", "ssd+hdd", "R(2,10,2)", "R(2,10,2)"),
    ] {
        t.push_row(vec![
            exp.into(),
            "2".into(),
            prop.into(),
            s1.into(),
            s2.into(),
            delays.into(),
            loads.into(),
        ]);
    }
    t
}

fn figure_2_grids() -> String {
    let alloc = OrthogonalAllocation::new(7, Placement::SingleSite);
    let mut out = String::from(
        "Figure 2 — Orthogonal allocation of a 7x7 grid on 7 disks\n\
         (left: first copy, right: second copy; each disk pair appears exactly once)\n\n",
    );
    for row in 0..7u32 {
        let left: Vec<String> = (0..7u32)
            .map(|col| alloc.f(Bucket::new(row, col)).to_string())
            .collect();
        let right: Vec<String> = (0..7u32)
            .map(|col| alloc.g(Bucket::new(row, col)).to_string())
            .collect();
        out.push_str(&format!("{}    {}\n", left.join(" "), right.join(" ")));
    }
    out
}

fn main() {
    rig::parse("tables", &mut []);
    for t in [table_i(), table_ii(), table_iii(), table_iv()] {
        println!("{}", t.render());
    }
    println!("{}", figure_2_grids());
}
