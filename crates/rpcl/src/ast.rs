//! Abstract syntax tree for RPCL specifications.

/// A complete parsed specification (one `.x` file).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Spec {
    /// Top-level definitions in source order.
    pub definitions: Vec<Definition>,
}

/// One top-level definition.
#[derive(Debug, Clone, PartialEq)]
pub enum Definition {
    /// `const NAME = value;`
    Const(ConstDef),
    /// `enum name { ... };`
    Enum(EnumDef),
    /// `struct name { ... };`
    Struct(StructDef),
    /// `union name switch (...) { ... };`
    Union(UnionDef),
    /// `typedef declaration;`
    Typedef(TypedefDef),
    /// `program NAME { ... } = number;`
    Program(ProgramDef),
}

/// A named integer constant.
#[derive(Debug, Clone, PartialEq)]
pub struct ConstDef {
    /// RPCL name (conventionally upper case).
    pub name: String,
    /// Constant value.
    pub value: i64,
}

/// An enumeration.
#[derive(Debug, Clone, PartialEq)]
pub struct EnumDef {
    /// Type name.
    pub name: String,
    /// `(variant name, value)` pairs in source order.
    pub variants: Vec<(String, i64)>,
}

/// A structure.
#[derive(Debug, Clone, PartialEq)]
pub struct StructDef {
    /// Type name.
    pub name: String,
    /// Member declarations in source order.
    pub fields: Vec<Declaration>,
    /// The leading magic word `const MAGIC_<name> = …;` declares, if any.
    pub magic: Option<u32>,
    /// The version word `const VERSION_<name> = …;` declares, if any.
    pub version: Option<u32>,
}

impl StructDef {
    /// The words written before the members and checked on decode, in wire
    /// order (magic, then version), each with its name.
    pub(crate) fn tags(&self) -> impl Iterator<Item = (&'static str, u32)> {
        [("magic", self.magic), ("version", self.version)]
            .into_iter()
            .filter_map(|(word, value)| Some((word, value?)))
    }

    /// True if the last member points at the struct itself (`s *next`).
    pub(crate) fn links_to_itself(&self) -> bool {
        self.fields.last().is_some_and(|f| {
            f.kind == DeclKind::Pointer && f.ty == TypeSpec::Named(self.name.clone())
        })
    }

    /// The item of an RFC 4506 §4.19 optional-data list node — a struct of
    /// one item and a last member `s *next` pointing at itself — or `None`
    /// for any other struct. Codegen emits such a node as the list it
    /// heads (`s *`): a `Vec` of items with a loop for a codec, never
    /// nested `Option<Box<_>>`s, so no list length can exhaust the stack.
    pub(crate) fn list_item(&self) -> Option<&Declaration> {
        match self.fields.as_slice() {
            [item, _] if self.links_to_itself() => Some(item),
            _ => None,
        }
    }
}

/// A discriminated union.
#[derive(Debug, Clone, PartialEq)]
pub struct UnionDef {
    /// Type name.
    pub name: String,
    /// Discriminant declaration (`int err`, `my_enum kind`, ...).
    pub discriminant: Declaration,
    /// Case arms. Each arm may be selected by several case values.
    pub cases: Vec<UnionCase>,
    /// Optional `default:` arm declaration (`None` body means `void`).
    pub default: Option<Option<Declaration>>,
}

/// One `case` arm of a union.
#[derive(Debug, Clone, PartialEq)]
pub struct UnionCase {
    /// The case values selecting this arm (resolved constants) paired with
    /// the spelling used in the source (for enum-discriminated unions).
    pub values: Vec<(i64, String)>,
    /// The arm's declaration; `None` = `void`.
    pub decl: Option<Declaration>,
}

/// A `typedef`.
#[derive(Debug, Clone, PartialEq)]
pub struct TypedefDef {
    /// The declaration whose name becomes the new type name.
    pub decl: Declaration,
}

/// A `program` block.
#[derive(Debug, Clone, PartialEq)]
pub struct ProgramDef {
    /// Program name.
    pub name: String,
    /// Program number.
    pub number: i64,
    /// Versions in source order.
    pub versions: Vec<VersionDef>,
}

/// A `version` block inside a program.
#[derive(Debug, Clone, PartialEq)]
pub struct VersionDef {
    /// Version name.
    pub name: String,
    /// Version number.
    pub number: i64,
    /// Procedures in source order.
    pub procedures: Vec<ProcedureDef>,
}

/// One remote procedure.
#[derive(Debug, Clone, PartialEq)]
pub struct ProcedureDef {
    /// Procedure name.
    pub name: String,
    /// Procedure number.
    pub number: i64,
    /// Result type (`Void` for `void`).
    pub result: TypeSpec,
    /// Argument types (empty or `[Void]` for `(void)`).
    pub args: Vec<TypeSpec>,
    /// Declared `idempotent` in the interface: safe to retransmit without
    /// at-most-once protection, so generated clients may auto-retry it.
    pub idempotent: bool,
    /// Declared `batchable` in the interface: an async, non-result-bearing
    /// op (plain `int` status result) that clients may record into a
    /// command batch instead of sending immediately. Codegen emits a
    /// `*_record` stub, an `is_batchable` table and a variant of the
    /// version's `BatchOp` decoder for these.
    pub batchable: bool,
    /// Declared `inline` in the interface: answers from host-visible state
    /// without ever waiting, so a server may run it on its poll thread.
    /// Codegen emits an `is_inline` table.
    pub inline: bool,
    /// Declared `admin` in the interface: an operator, checkpoint or
    /// migration control call that admission control never sheds. Codegen
    /// emits an `is_admin` table.
    pub admin: bool,
    /// Declared `cost(ns)` in the interface: the host-side nanoseconds a
    /// server charges for the call beside its dispatch. Codegen emits a
    /// `host_cost_ns` table (0 for a procedure without one).
    pub cost_ns: Option<u64>,
    /// Declared `api(method, "name")` in the interface: the procedure is a
    /// typed client method. Codegen emits the version's API macro.
    pub api: Option<Api>,
}

/// The client method an `api(method, "name")` attribute declares.
#[derive(Debug, Clone, PartialEq)]
pub struct Api {
    /// Rust name of the method.
    pub method: String,
    /// The API name its calls are counted and refused under (`cudaMalloc`).
    pub name: String,
}

/// A variable declaration: a type applied to a name with an optional
/// array/pointer decoration.
#[derive(Debug, Clone, PartialEq)]
pub struct Declaration {
    /// Declared name.
    pub name: String,
    /// Element or base type.
    pub ty: TypeSpec,
    /// Array/pointer decoration.
    pub kind: DeclKind,
}

/// How a declaration's type is decorated.
#[derive(Debug, Clone, PartialEq)]
pub enum DeclKind {
    /// Plain value: `T name`.
    Plain,
    /// Fixed array: `T name[N]`.
    FixedArray(u64),
    /// Variable array: `T name<max?>`; `None` = unbounded.
    VarArray(Option<u64>),
    /// Optional ("pointer"): `T *name`.
    Pointer,
}

/// Base type specifiers.
#[derive(Debug, Clone, PartialEq)]
pub enum TypeSpec {
    /// `int`
    Int,
    /// `unsigned int` / `unsigned`
    UInt,
    /// `hyper`
    Hyper,
    /// `unsigned hyper`
    UHyper,
    /// `float`
    Float,
    /// `double`
    Double,
    /// `bool`
    Bool,
    /// `void`
    Void,
    /// `string` (only valid with `VarArray` decoration)
    StringType,
    /// `opaque` (only valid with array decorations)
    Opaque,
    /// Reference to a named type (struct/enum/union/typedef).
    Named(String),
}

impl TypeSpec {
    /// True for `void`.
    pub(crate) fn is_void(&self) -> bool {
        matches!(self, TypeSpec::Void)
    }
}

/// Convert an RPCL identifier to a Rust type name (`CamelCase`).
///
/// `ptr_result` → `PtrResult`, `CUDA_ERROR` → `CudaError`, `dint` → `Dint`.
pub(crate) fn rust_type_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    let mut upper_next = true;
    for ch in name.chars() {
        if ch == '_' {
            upper_next = true;
        } else if upper_next {
            out.extend(ch.to_uppercase());
            upper_next = false;
        } else {
            out.extend(ch.to_lowercase());
        }
    }
    out
}

/// Convert an RPCL identifier to a Rust value/method name (`snake_case`).
pub(crate) fn rust_value_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 4);
    let mut prev_lower = false;
    for ch in name.chars() {
        if ch == '_' {
            out.push('_');
            prev_lower = false;
        } else if ch.is_uppercase() {
            if prev_lower {
                out.push('_');
            }
            out.extend(ch.to_lowercase());
            prev_lower = false;
        } else {
            out.push(ch);
            // Only a lowercase letter (not a digit) triggers an underscore
            // before the next uppercase letter: "C2C" → "c2c", not "c2_c".
            prev_lower = ch.is_lowercase();
        }
    }
    // Avoid Rust keywords that plausibly appear as field names.
    match out.as_str() {
        "type" | "fn" | "impl" | "ref" | "self" | "mod" | "use" | "move" | "box" | "in"
        | "loop" | "match" | "where" | "async" => format!("r#{out}"),
        _ => out,
    }
}

/// Convert an RPCL identifier to a Rust constant name (`SCREAMING_SNAKE`).
pub(crate) fn rust_const_name(name: &str) -> String {
    let snake = rust_value_name(name);
    snake.trim_start_matches("r#").to_uppercase()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn type_names() {
        assert_eq!(rust_type_name("ptr_result"), "PtrResult");
        assert_eq!(rust_type_name("CUDA_ERROR"), "CudaError");
        assert_eq!(rust_type_name("mem_data"), "MemData");
        assert_eq!(rust_type_name("x"), "X");
    }

    #[test]
    fn value_names() {
        assert_eq!(rust_value_name("CUDA_MALLOC"), "cuda_malloc");
        assert_eq!(rust_value_name("getDeviceCount"), "get_device_count");
        assert_eq!(rust_value_name("type"), "r#type");
    }

    #[test]
    fn const_names() {
        assert_eq!(rust_const_name("cuda_malloc"), "CUDA_MALLOC");
        assert_eq!(rust_const_name("RPC_PROG"), "RPC_PROG");
    }
}
