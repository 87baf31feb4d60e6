//! Table 2: Hamiltonian matrix dimensions of closed spin-1/2 chains.
//!
//! Dimensions are hardware-independent, so this reproduction must match
//! the paper **exactly**. Computed in closed form by Burnside counting
//! (`ls-symmetry::count`) and cross-validated against explicit
//! enumeration for every size a laptop can enumerate. Exits non-zero if
//! any row of either table disagrees.
//!
//! ```sh
//! cargo run --release --example table2
//! ```

use exact_diag::basis::{SectorSpec, SpinBasis};
use exact_diag::symmetry::count::table2_dimension;
use exact_diag::symmetry::lattice;

fn main() {
    let paper: &[(usize, u64)] = &[
        (40, 861_725_794),
        (42, 3_204_236_779),
        (44, 11_955_836_258),
        (46, 44_748_176_653),
        (48, 167_959_144_032),
    ];
    let mut mismatches = 0;

    let rows: Vec<Vec<String>> = paper
        .iter()
        .map(|&(n, expect)| {
            let dim = table2_dimension(n);
            mismatches += usize::from(dim != expect);
            vec![
                format!("{n} spins"),
                format!("{dim}"),
                format!("{expect}"),
                if dim == expect { "exact ✓".into() } else { "MISMATCH ✗".into() },
            ]
        })
        .collect();
    print_table(
        "Table 2: sector dimensions (U(1) half filling, k=0, R=+1, I=+1)",
        &["system", "ours (Burnside)", "paper", "status"],
        &rows,
    );

    // Cross-check Burnside counting against explicit enumeration where
    // enumeration is cheap.
    let rows: Vec<Vec<String>> = [8usize, 12, 16, 20, 24]
        .iter()
        .map(|&n| {
            let group = lattice::chain_group(n, 0, Some(0), Some(0)).unwrap();
            let sector = SectorSpec::new(n as u32, Some(n as u32 / 2), group).unwrap();
            let burnside = sector.dimension();
            let t = std::time::Instant::now();
            let enumerated = SpinBasis::build(sector).dim() as u64;
            mismatches += usize::from(burnside != enumerated);
            vec![
                format!("{n} spins"),
                format!("{burnside}"),
                format!("{enumerated}"),
                format!("{:.2} ms", t.elapsed().as_secs_f64() * 1e3),
                if burnside == enumerated { "✓".into() } else { "MISMATCH ✗".into() },
            ]
        })
        .collect();
    print_table(
        "cross-check: Burnside counting vs explicit enumeration",
        &["system", "Burnside", "enumerated", "enum time", "agree"],
        &rows,
    );

    if mismatches > 0 {
        eprintln!("{mismatches} row(s) disagree");
        std::process::exit(1);
    }
}

/// Prints a fixed-width table.
fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n## {title}");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let header_line: Vec<String> =
        headers.iter().zip(&widths).map(|(h, w)| format!("{h:>w$}")).collect();
    println!("{}", header_line.join("  "));
    println!("{}", "-".repeat(header_line.join("  ").len()));
    for row in rows {
        let line: Vec<String> =
            row.iter().zip(&widths).map(|(c, w)| format!("{c:>w$}")).collect();
        println!("{}", line.join("  "));
    }
}
