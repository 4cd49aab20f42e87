//! Read access into `cagc_harness::Json` trees (the harness type only
//! builds, renders and parses).

use cagc_harness::Json;

pub fn get<'a>(j: &'a Json, key: &str) -> Option<&'a Json> {
    match j {
        Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

pub fn entries(j: &Json) -> &[(String, Json)] {
    match j {
        Json::Obj(pairs) => pairs,
        _ => &[],
    }
}

pub fn as_f64(j: &Json) -> Option<f64> {
    match j {
        Json::U64(n) => Some(*n as f64),
        Json::I64(n) => Some(*n as f64),
        Json::F64(x) => Some(*x),
        _ => None,
    }
}

pub fn num(j: &Json, key: &str) -> Option<f64> {
    get(j, key).and_then(as_f64)
}

#[cfg(test)]
pub fn text<'a>(j: &'a Json, key: &str) -> Option<&'a str> {
    match get(j, key) {
        Some(Json::Str(s)) => Some(s),
        _ => None,
    }
}
