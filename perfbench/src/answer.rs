//! Query answers in one comparable shape: rows of typed values in a
//! canonical order. The engine's blocks are decoded through their output
//! schema; the reference side builds the same shape from its own fold.

use tde_core::exec::{Block, Schema};
use tde_core::types::Value;

pub type Rows = Vec<Vec<Value>>;

/// Decode an engine result and sort its rows.
pub fn from_blocks(schema: &Schema, blocks: &[Block]) -> Rows {
    let mut rows = Vec::new();
    for b in blocks {
        for r in 0..b.len {
            rows.push(
                (0..schema.len())
                    .map(|c| schema.fields[c].value_of(b.columns[c][r]))
                    .collect(),
            );
        }
    }
    canonical(rows)
}

/// Sort rows by their rendering so group order never matters.
pub fn canonical(mut rows: Rows) -> Rows {
    rows.sort_by_cached_key(|r| format!("{r:?}"));
    rows
}

/// Do two answers agree? Reals compare with a relative tolerance (the
/// engine and the reference sum in different orders); everything else
/// compares exactly.
pub fn agree(engine: &Rows, reference: &Rows) -> Result<(), String> {
    if engine.len() != reference.len() {
        return Err(format!(
            "{} row(s) from the engine, {} expected",
            engine.len(),
            reference.len()
        ));
    }
    for (i, (a, b)) in engine.iter().zip(reference).enumerate() {
        let same = a.len() == b.len()
            && a.iter().zip(b).all(|(x, y)| match (x, y) {
                (Value::Real(x), Value::Real(y)) => {
                    (x - y).abs() <= 1e-9 * x.abs().max(y.abs()).max(1.0)
                }
                _ => x == y,
            });
        if !same {
            return Err(format!("row {i}: engine {a:?}, expected {b:?}"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reals_get_a_tolerance_and_ints_do_not() {
        let a = vec![vec![Value::Int(1), Value::Real(0.1 + 0.2)]];
        let b = vec![vec![Value::Int(1), Value::Real(0.3)]];
        assert!(agree(&a, &b).is_ok());
        let c = vec![vec![Value::Int(2), Value::Real(0.3)]];
        assert!(agree(&a, &c).is_err());
        assert!(agree(&a, &vec![]).is_err());
    }
}
